"""Decomposition of matrix sequences into primitive streams and a pool, and
block-triangular normal forms.

A *stream* assigns to every late-enough level a subset of the alphabet so
that the induced subsequence is reduced and primitive; the *pool* is what
remains and carries no infinite vertex path.  Streams are found as the
strongly connected components of the lifted (phase, symbol) graph of the
cycle part; an SCC whose layered period is rho splits into rho cyclic
classes, and each cyclic class traced around the cycle is one stream.

A decomposition is built in two steps.  Ordering takes every SCC's period
first, so lcm_period is known, and then builds the streams in order; a
stream's members at the periodic levels follow from its SCC alone.
Resolution fills one table per layout position, hands each stream its
prefix members, and certifies the streams and the pool; it runs on the
first read of the table or of `certificates`, and `stream_decompose` reads
both before it returns.  The stream relations are lookups in the table:
`reach(k, a)` is the set of streams symbol a at level k has an edge path
into, its own included; the streams that communicate into a stream are
those whose members reach it.  A stream is plain data with no reference to
its decomposition, so reference counting frees a dropped decomposition.
"""

import collections
import functools
import heapq
import math

from .errors import (NotReduced, ShapeMismatch, InternalError,
                     HorizonExceeded)
from . import matrixseq
from .cones import PerronRoot
from .matrixseq import (
    GenMatrix,
    EventuallyPeriodic,
    Truncated,
    partial_product,
    is_primitive,
    reduce_sequence,
)


def strongly_connected_components(graph):
    """Tarjan's algorithm with an explicit stack: the components in reverse
    topological order, each as a sorted tuple.  Roots are tried in sorted
    order and successors in the order the graph lists them."""
    index, low = {}, {}
    stack, on_stack, result = [], set(), []
    for root in sorted(graph):
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(graph.get(root, ())))]
        while work:
            node, successors = work[-1]
            for succ in successors:
                if succ not in index:
                    index[succ] = low[succ] = len(index)
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(graph.get(succ, ()))))
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    result.append(tuple(sorted(component)))
    return result


def _reach(graph, sccs, seeds):
    """For each node of `graph` {node: [successors]}, the frozenset of seed
    labels it has an edge path to, its own included.  `seeds` maps some
    nodes to a label; `sccs` are the graph's strongly connected components
    sinks first, as `strongly_connected_components` lists them.  One pass
    gives every node of a component the labels of the component's own
    nodes plus what their successors outside it reach."""
    node_reach = {}
    for scc in sccs:
        acc = {seeds[node] for node in scc if node in seeds}
        for node in scc:
            for succ in graph[node]:
                if succ in node_reach:
                    acc |= node_reach[succ]
        acc = frozenset(acc)
        for node in scc:
            node_reach[node] = acc
    return node_reach


def _class_analysis(graph):
    """The nontrivial strongly connected components (those carrying a
    cycle) of a directed graph {node: [successors]}, sources first, taking
    the least available one at each step.  Components are disjoint sorted
    tuples, so "least" compares their first nodes."""
    sccs = strongly_connected_components(graph)
    big = [scc for scc in sccs if len(scc) > 1 or scc[0] in graph[scc[0]]]
    # each big component reaches itself; only the others count below
    reach = _reach(graph, sccs, {node: scc for scc in big for node in scc})
    reached_by = dict.fromkeys(big, 0)
    for scc in big:
        for tgt in reach[scc[0]]:
            if tgt != scc:
                reached_by[tgt] += 1
    available = [scc for scc in big if not reached_by[scc]]
    heapq.heapify(available)
    order = []
    while available:
        pick = heapq.heappop(available)
        order.append(pick)
        for tgt in reach[pick[0]]:
            if tgt != pick:
                reached_by[tgt] -= 1
                if not reached_by[tgt]:
                    heapq.heappush(available, tgt)
    return order


def _depths_and_period(graph, scc):
    """Breadth-first depths from scc[0] inside one SCC, and its period: the
    gcd of depth[u] + 1 - depth[v] over the SCC's edges u -> v (1 when the
    gcd is 0)."""
    inside = set(scc)
    depth = {scc[0]: 0}
    queue = collections.deque([scc[0]])
    while queue:
        node = queue.popleft()
        for succ in graph.get(node, ()):
            if succ in inside and succ not in depth:
                depth[succ] = depth[node] + 1
                queue.append(succ)
    rho = 0
    for node in scc:
        for succ in graph.get(node, ()):
            if succ in inside:
                rho = math.gcd(rho, depth[node] + 1 - depth[succ])
    return depth, rho or 1


def _matrix_graph(m):
    """The graph {row: sorted columns with a nonzero entry} of a matrix."""
    graph = {a: [] for a in m.rows}
    for (a, b) in m.entries:
        graph[a].append(b)
    return {a: sorted(succs) for a, succs in graph.items()}


class Stream:
    """One primitive stream: a cyclic class of one SCC of the lifted graph,
    together with its backward extension through the prefix.  It holds its
    decomposition's layout (seq, valid_from, period, lcm_period), its SCC
    data and its members, and no reference to the decomposition.  Its
    members at the periodic levels follow from the SCC; its members at the
    prefix levels are handed over once, when the decomposition's table is
    filled, and reading one before that is an InternalError."""

    def __init__(self, layout, index, scc, ell, rho, residue):
        self.seq, self.valid_from, self.period, self.lcm_period = layout
        self.index = index          # 1-based position in the ordering
        self.scc = scc              # tuple of (phase, symbol) nodes
        self.ell = ell              # node -> cyclic class in Z_rho
        self.rho = rho              # rotation period in levels
        self.residue = residue
        self._prefix_members = None     # levels 0..valid_from-1

    @functools.cached_property
    def _periodic_members(self):
        """The members at the positions valid_from + m, m < lcm_period: the
        symbols a with (m mod period, a) in the SCC in cyclic class
        (residue + m) mod rho."""
        out = [set() for _ in range(self.lcm_period)]
        for (ph, a), c in self.ell.items():
            for m in range(ph, self.lcm_period, self.period):
                if c == (self.residue + m) % self.rho:
                    out[m].add(a)
        return [frozenset(g) for g in out]

    def members_at(self, k):
        """The stream's symbols at level k, at any k >= 0."""
        P = self.valid_from
        if k >= P:
            return self._periodic_members[(k - P) % self.lcm_period]
        if k < 0:
            raise IndexError(k)
        if self._prefix_members is None:
            raise InternalError("internal error: stream %d read at prefix "
                                "level %d before its table" % (self.index, k))
        return self._prefix_members[k]

    @property
    def starting_time(self):
        k = 0
        while not self.members_at(k):
            k += 1
        return k

    def induced_cycle(self):
        """The induced periodic subsequence on the stream's symbols (cycle
        part only, one full rotation).  Built once, and shared by the
        primitivity certificate and `period_product`."""
        return self._cycle

    @functools.cached_property
    def _cycle(self):
        P = self.valid_from
        return EventuallyPeriodic([], [matrixseq._restrict_to(
            self.seq.matrix(P + j), self.members_at(P + j),
            self.members_at(P + j + 1)) for j in range(self.lcm_period)])

    def period_product(self):
        """Product of the induced matrices over one lcm period: a square
        matrix on the stream's symbols at the valid-from level."""
        return partial_product(self.induced_cycle(), 0, self.lcm_period - 1)

    @functools.cached_property
    def perron_root(self):
        """The Perron root of `period_product()`, built on first read and
        shared by every comparison and ray that reads this stream.  Its
        Collatz-Wielandt bounds are built with it; its algebraic value
        (sympy) only when a ray or a comparison the bounds cannot decide
        reads it."""
        return PerronRoot(self.period_product())

    def __repr__(self):
        return "Stream(%d, at %d: %r)" % (
            self.index, self.valid_from,
            sorted(self.members_at(self.valid_from)))


# One layout position of a decomposition: each symbol's block, and the set
# of streams each symbol reaches
_Position = collections.namedtuple("_Position", "blocks reach")


class StreamDecomposition:
    """Streams and pool of a sequence.  Its layout is the prefix levels
    0..valid_from-1 followed by one lcm period; `index(k)` maps a level to
    its position, and `_table` holds one `_Position` per position.  The
    table and `certificates` are resolved together on the first read of
    either, and the streams own their members.  Every membership and block
    reader below reads that table and the streams.  `horizon` is the
    horizon of the input: None when it is eventually periodic, and a
    truncated window's own horizon also when the window was decomposed
    through its periodic extension.  The readers answer for levels up to
    max(horizon, valid_from), so a report can read its anchor level
    valid_from."""

    def __init__(self, layout, streams, provisional=False):
        self.seq, self.valid_from, self.period, self.lcm_period = layout
        self.horizon = self.seq.horizon
        self.streams = streams
        self.provisional = provisional

    @functools.cached_property
    def _resolved(self):
        return _fill_table(self), _certify(self)

    @property
    def _table(self):
        return self._resolved[0]

    @property
    def certificates(self):
        """Primitivity of every stream and acyclicity of the pool."""
        return self._resolved[1]

    def index(self, k):
        """The layout position of level k: k below valid_from, then one lcm
        period repeating.  IndexError for k < 0; HorizonExceeded past
        max(horizon, valid_from) of a truncated window."""
        P = self.valid_from
        if k < P:
            if k < 0:
                raise IndexError(k)
            return k
        if self.horizon is not None and k > max(self.horizon, P):
            raise HorizonExceeded("level %d beyond horizon %d"
                                  % (k, self.horizon))
        return P + (k - P) % self.lcm_period

    def _at(self, k):
        return self._table[self.index(k)]

    # -- membership ---------------------------------------------------

    def stream_of(self, k, a):
        """Stream index containing symbol a at level k, or None (pool)."""
        _, i = self._at(k).blocks.get(a, (None, 0))
        s = self.streams[i - 1] if 0 < i <= len(self.streams) else None
        return i if s is not None and a in s.members_at(k) else None

    def reach(self, k, a):
        """The streams that symbol a at level k has an edge path into, its
        own stream included."""
        return self._at(k).reach.get(a, frozenset())

    def pool_members_at(self, k):
        return frozenset(self._at(k).blocks).difference(
            *(s.members_at(k) for s in self.streams))

    # -- blocks ---------------------------------------------------------

    def block_assignment(self, k):
        """Map each level-k symbol to ('stream', i) or ('pool', i)."""
        return dict(self._at(k).blocks)

    @staticmethod
    def block_key(block):
        kind, i = block
        return (i, 1 if kind == "stream" else 0)

    @staticmethod
    def block_label(block):
        kind, i = block
        return str(i) if kind == "stream" else "P%d" % i

    def block_matrix(self, k):
        """0-1 connection matrix between the blocks at levels k and k+1."""
        asg0, asg1 = self._at(k).blocks, self._at(k + 1).blocks
        rows, cols = (tuple(self.block_label(b) for b in sorted(
            set(asg.values()), key=self.block_key)) for asg in (asg0, asg1))
        entries = {(self.block_label(asg0[a]), self.block_label(asg1[b])): 1
                   for (a, b) in self.seq.matrix(k).entries}
        return GenMatrix(rows, cols, entries)

    def frobenius_form(self):
        """Permute and gather the decomposed sequence into the fixed-size
        block-triangular form: after the first (possibly rectangular)
        matrix all matrices are square with the same ordered block
        alphabet, diagonal blocks are reduced primitive (streams) or
        identically zero (pool), and nonzero blocks only sit on or above
        the diagonal."""
        if self.provisional:
            raise ShapeMismatch(
                "fixed-size form needs an eventually periodic input")
        seq, P, L = self.seq, self.valid_from, self.lcm_period
        pool_total = sum(len(self.pool_members_at(P + m)) for m in range(L))
        G = L * (pool_total + 1)

        def symbol_order(k):
            asg = self.block_assignment(k)
            return sorted(asg, key=lambda a: (self.block_key(asg[a]), a))

        times = ([0, P] if P > 0 else [0]) + [P + G, P + 2 * G]

        def gathered(i, j):
            return GenMatrix(symbol_order(i), symbol_order(j + 1),
                             partial_product(seq, i, j).entries)

        prefix = [gathered(0, P - 1)] if P > 0 else []
        form = EventuallyPeriodic(prefix, [gathered(P, P + G - 1)])

        # the levels of the form start at the gathering times before P + G
        block_alphabets, permutations = [], {}
        for k in times[:len(prefix) + 1]:
            asg = self.block_assignment(k)
            order = symbol_order(k)
            permutations[k] = order
            block_alphabets.append([(a, asg[a]) for a in order])

        # verify the form: upper block-triangular, and the square cycle
        # matrix has zero pool diagonal blocks
        for gl in range(len(prefix) + 1):
            m = form.matrix(gl)
            asg_r = dict(block_alphabets[gl])
            nxt = min(gl + 1, len(block_alphabets) - 1)
            asg_c = dict(block_alphabets[nxt])
            for (a, b) in m.entries:
                if self.block_key(asg_r[a]) > self.block_key(asg_c[b]):
                    raise InternalError(
                        "internal error: form is not triangular")
                if (gl == len(prefix) and asg_r[a][0] == "pool"
                        and asg_r[a] == asg_c[b]):
                    raise InternalError(
                        "internal error: pool diagonal nonzero")

        return FrobeniusForm(self, form, times, permutations)

    def __repr__(self):
        return ("StreamDecomposition(%d streams, valid_from=%d%s)"
                % (len(self.streams), self.valid_from,
                   ", provisional" if self.provisional else ""))


def _lifted_graph(seq, n):
    """Graph on (level offset mod n, symbol) nodes of the cycle part; n is a
    multiple of the period."""
    P = seq.prefix_len
    graph = {}
    for p in range(n):
        for a, succs in _matrix_graph(seq.matrix(P + p)).items():
            graph[(p, a)] = [((p + 1) % n, b) for b in succs]
    return graph


def stream_decompose(seq):
    """Decompose a reduced sequence into ordered primitive streams plus a
    pool, with the table and the certificates resolved.  Eventually
    periodic input is decided exactly; Truncated input yields a provisional
    decomposition (see the docstring of _decompose_truncated)."""
    if isinstance(seq, Truncated):
        return _decompose_truncated(seq)
    decomp = _stream_order(seq)
    decomp.certificates     # resolves the table and certifies
    return decomp


def _stream_order(seq):
    """The ordering step of stream_decompose on a reduced eventually
    periodic sequence: the streams in order, valid_from and lcm_period.
    The table and the certificates are left to their first read."""
    if not matrixseq.is_reduced(seq):
        raise NotReduced("reduce the sequence before decomposing")
    P, T = seq.prefix_len, seq.period
    graph = _lifted_graph(seq, T)
    classes = [(scc,) + _depths_and_period(graph, scc)
               for scc in _class_analysis(graph)]
    layout = (seq, P, T, math.lcm(T, *(rho for _, _, rho in classes)))
    streams = []
    for scc, depth, rho in classes:
        ell = {node: depth[node] % rho for node in scc}
        # valid residues r: the stream (scc, r) is nonempty at some level,
        # i.e. r = ell(u) - (phase(u) + t*T) mod rho for some node and t.
        # The streams of one SCC are ordered by their symbols at phase 0.
        residues = {(ell[u] - u[0] - t * T) % rho
                    for u in scc for t in range(max(1, rho))}
        for r in sorted(residues, key=lambda r: (sorted(
                a for (ph, a) in scc if ph == 0 and ell[(ph, a)] == r), r)):
            streams.append(Stream(layout, len(streams) + 1, scc, ell, rho, r))
    return StreamDecomposition(layout, streams)


def _fill_table(decomp):
    """The decomposition's table, one `_Position` per layout position.  On
    the L-periodic lifted graph, a node reaches the streams owning the
    nodes of its SCC plus what its successors outside the SCC reach
    (`_reach`), and a node no stream owns has the block ('pool', i), i the
    least stream it reaches (the stream count + 1 when none).  Prefix
    symbols, filled backward, reach what their successors reach and join
    the least stream i they reach; the block is ('pool', i) when the symbol
    has an edge into a ('pool', i) block, which keeps the block matrices
    upper triangular, and ('stream', i) otherwise.  Each stream is handed
    its prefix members here, once."""
    seq, P, L = decomp.seq, decomp.valid_from, decomp.lcm_period
    n = len(decomp.streams)
    graph = _lifted_graph(seq, L)
    own = {(m, a): s.index for s in decomp.streams
           for m, members in enumerate(s._periodic_members) for a in members}
    node_reach = _reach(graph, strongly_connected_components(graph), own)

    levels = []                 # (blocks, reach) per position
    for m in range(L):
        reach = {a: node_reach[(m, a)] for a in seq.alphabet(P + m)}
        levels.append(({a: ("stream", own[(m, a)]) if (m, a) in own
                        else ("pool", min(r) if r else n + 1)
                        for a, r in reach.items()}, reach))
    for k in range(P - 1, -1, -1):
        nxt_blocks, nxt_reach = levels[0]
        m = seq.matrix(k)
        reach = {a: set() for a in m.rows}
        targets = {a: set() for a in m.rows}
        for (a, b) in m.entries:
            reach[a] |= nxt_reach[b]
            targets[a].add(nxt_blocks[b])
        blocks = {}
        for a, r in reach.items():
            i = min(r) if r else n + 1
            blocks[a] = ("pool" if ("pool", i) in targets[a] else "stream", i)
        levels.insert(0, (blocks, {a: frozenset(r) for a, r in reach.items()}))

    prefix = [[set() for _ in range(P)] for _ in range(n)]
    for k, (blocks, reach) in enumerate(levels[:P]):
        for a, (_, i) in blocks.items():
            # a prefix symbol is a member of the least stream it reaches,
            # also when its block is ('pool', i)
            if reach[a]:
                prefix[i - 1][k].add(a)
    for s, members in zip(decomp.streams, prefix):
        s._prefix_members = [frozenset(g) for g in members]
    return [_Position(blocks, reach) for blocks, reach in levels]


def _certify(decomp):
    """Machine-checkable certificates: primitivity of every stream and
    acyclicity of the pool.  They read the streams' members at the periodic
    levels only, so no table."""
    certs = {"streams": {}, "pool": None}
    for s in decomp.streams:
        v = is_primitive(s.induced_cycle())
        certs["streams"][s.index] = v
        if not v.is_yes():
            raise InternalError(
                "internal error: stream %d failed primitivity" % s.index)
    # pool acyclicity: no pool node may sit on a cycle of the lifted graph;
    # by construction pool nodes are exactly the trivial SCCs, so a direct
    # re-check is cheap: peel pool nodes with no pool successor left, sinks
    # first, recording the longest pool-only path from each.  A node never
    # peeled lies on or leads into a cycle.  The pool is the complement of
    # the streams certified here.
    seq, P, L = decomp.seq, decomp.valid_from, decomp.lcm_period
    pool = [frozenset(seq.alphabet(P + m)).difference(
        *(s.members_at(P + m) for s in decomp.streams)) for m in range(L)]
    pool_nodes = [(m, a) for m in range(L) for a in pool[m]]
    preds = {node: [] for node in pool_nodes}
    waiting = dict.fromkeys(pool_nodes, 0)
    for m in range(L):
        for (a, b) in seq.matrix(P + m).entries:
            if a in pool[m] and b in pool[(m + 1) % L]:
                preds[((m + 1) % L, b)].append((m, a))
                waiting[(m, a)] += 1
    longest = dict.fromkeys(pool_nodes, 0)
    ready = [node for node in pool_nodes if not waiting[node]]
    while ready:
        node = ready.pop()
        for pred in preds[node]:
            longest[pred] = max(longest[pred], 1 + longest[node])
            waiting[pred] -= 1
            if not waiting[pred]:
                ready.append(pred)
    if any(waiting.values()):
        raise InternalError("internal error: pool contains a cycle")
    maxlen = max(longest.values(), default=0)
    certs["pool"] = {"longest_pool_path": maxlen,
                     "pool_nodes": len(pool_nodes)}
    return certs


def _decompose_truncated(seq):
    """Provisional decomposition of a finite window.  If the final term is
    square the window is optimistically continued by repeating it and the
    periodic algorithm is run; otherwise nothing can be said.  Either way
    the result is flagged provisional and valid only to the horizon."""
    last = seq.terms[-1]
    if set(last.rows) != set(last.cols):
        decomp = StreamDecomposition((seq, seq.horizon, 1, 1), [],
                                     provisional=True)
        decomp._resolved = (
            [_Position({a: ("pool", 1) for a in seq.alphabet(k)}, {})
             for k in range(seq.horizon + 1)],
            {"streams": {}, "pool": None, "note": "window ends rectangular"})
        return decomp
    extended = EventuallyPeriodic(seq.terms, [last])
    extended, _ = reduce_sequence(extended)
    decomp = stream_decompose(extended)
    decomp.provisional = True
    decomp.horizon = seq.horizon
    return decomp


# ---------------------------------------------------------------------------
# fixed-size block-triangular form


class FrobeniusForm:
    def __init__(self, decomposition, form, gathering_times, permutations):
        self.decomposition = decomposition
        self.form = form                    # gathered, permuted sequence
        self.gathering_times = gathering_times
        self.permutations = permutations    # level -> symbol order used


def frobenius_form(seq):
    """The fixed-size block-triangular form of an eventually periodic
    reduced sequence (see StreamDecomposition.frobenius_form)."""
    return stream_decompose(seq).frobenius_form()

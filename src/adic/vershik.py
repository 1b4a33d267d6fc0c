"""Successor dynamics on ordered path spaces.

Paths are represented lazily: an explicit edge prefix plus, for eventually
periodic diagrams, a periodic tail (one period of edges, repeated).  The
successor map increments the least non-maximal edge and rewrites everything
below it minimally; paths whose edges are all maximal have no successor.

Paths are validated once, at the boundary: the public `LazyPath(...)`
constructor checks every edge of the prefix and the tail.  One engine,
`_advance`, takes every step by editing a list of explicit edges in place
(a walk keeps one list for all its steps); the paths it derives from a
valid path are assembled by `_rebuild`, valid by construction, and are
not checked again.

Ranks, return times and Kac sums read one rank table per ordered diagram
and start level (`_RankTable`): the word counts at each level, one
`vec_mul` per level, and each edge's rank term, the running sum of the
counts below it in its target's order.  The table grows on demand, level
by level, to the deepest level asked for, and its memory is
O(depth^2 x edges) bits: depth x edges counts of O(depth) bits each.

Validated paths share their edges: `LazyPath` keeps the tuples of its
sequence's edge index (`_shared_word`), one per distinct edge, so the paths
over one diagram hold no copies of their own.
"""

import itertools
import math
from fractions import Fraction

from .errors import (
    MalformedWord,
    NotReduced,
    UndeterminedTail,
    NotInBase,
    ShapeMismatch,
    InternalError,
)
from .diagram import BratteliDiagram, StableOrder, _edge_tuple, check_word
from .matrixseq import (EventuallyPeriodic, Truncated, submatrix_leq,
                        _compare_horizon)
# unused here; perfbench/test_tracer.py still expects this module binding
from .matrixseq import partial_product  # noqa: F401


def _shared_word(seq, word, start):
    """`check_word(seq, word, start)` with each edge replaced by its tuple
    in `seq`'s edge index (see `MatrixSequence`), added on first use, so
    every path over `seq` holds one tuple per distinct edge."""
    index = seq._edge_index
    if index is None:
        index = seq._edge_index = {}
    return tuple([index.setdefault(e, e)
                  for e in check_word(seq, word, start)])


class LazyPath:
    """An infinite (or finite) path: explicit edges for levels
    start..tail_start-1, then an optional periodic tail.

    tail_cycle, when given, lists the edges of one tail period starting at
    level tail_start; the edge used at level k >= tail_start is the pattern
    at position (k - tail_start) % len(tail_cycle), shifted to level k.  The
    tail period must be a multiple of the diagram's period and start in the
    periodic region, so the shifted edges exist.  A path whose tail follows
    only minimal (maximal) edges is built by `extremal_path`.

    This constructor is the validation boundary: it checks the edge words,
    the tail shape and how prefix and tail compose, and raises
    MalformedWord, ShapeMismatch or UndeterminedTail.  Paths derived by the
    successor map skip it (see `_rebuild`)."""

    def __init__(self, diagram, prefix_edges, tail_cycle=None, start=0):
        self.diagram = diagram
        self.start = start
        self.prefix_edges = _shared_word(diagram.seq, prefix_edges, start) \
            if prefix_edges else ()
        self.tail_cycle = tuple(tail_cycle) if tail_cycle else None
        if self.tail_cycle:
            seq = diagram.seq
            if not seq.is_eventually_periodic:
                raise UndeterminedTail("periodic tails need an eventually "
                                       "periodic diagram")
            ts = self.tail_start
            if ts < seq.prefix_len:
                raise ShapeMismatch("tail must start in the periodic region")
            if len(self.tail_cycle) % seq.period != 0:
                raise ShapeMismatch("tail period must be a multiple of the "
                                    "diagram period")
            self.tail_cycle = _shared_word(seq, self.tail_cycle, ts)
            if self.prefix_edges and \
                    self.prefix_edges[-1][2] != self.tail_cycle[0][1]:
                raise MalformedWord("prefix does not compose with the tail")
            if self.tail_cycle[-1][2] != self.tail_cycle[0][1]:
                raise MalformedWord("tail cycle does not close")

    @classmethod
    def _derived(cls, diagram, start, prefix_edges, tail_cycle):
        """A path assembled by `_rebuild` from a valid one: the fields are
        set as given (tuples of edge tuples), with no checks."""
        path = cls.__new__(cls)
        path.diagram = diagram
        path.start = start
        path.prefix_edges = prefix_edges
        path.tail_cycle = tail_cycle
        return path

    @property
    def tail_start(self):
        return self.start + len(self.prefix_edges)

    def edge(self, k):
        if k < self.start:
            raise IndexError(k)
        if k < self.tail_start:
            return self.prefix_edges[k - self.start]
        if self.tail_cycle is None:
            raise UndeterminedTail("level %d beyond the explicit prefix" % k)
        pos = (k - self.tail_start) % len(self.tail_cycle)
        _, a, b, i = self.tail_cycle[pos]
        return (k, a, b, i)

    def word(self, upto):
        """Edges for levels start..upto-1."""
        n = max(upto - self.start, 0)
        if n <= len(self.prefix_edges):
            return self.prefix_edges[:n]
        return self.prefix_edges + tuple(
            self.edge(k) for k in range(self.tail_start, upto))

    def __repr__(self):
        tail = ("+%d-periodic tail" % len(self.tail_cycle)
                if self.tail_cycle else "")
        return "LazyPath(%r%s)" % (self.prefix_edges, tail)


def _word_into(pick, vertex, level, start=0):
    """The edge word covering levels start..level-1 and ending at `vertex`
    (at `level`), built backward: pick(k, v) chooses the edge into v at
    level k+1."""
    edges = []
    for k in range(level - 1, start - 1, -1):
        e = pick(k, vertex)
        edges.append(e)
        vertex = e[1]
    edges.reverse()
    return tuple(edges)


def min_word_into(diagram, vertex, level, start=0):
    """The minimal edge word covering levels start..level-1 and ending at
    `vertex` (at `level`): built backward with minimal edges."""
    return _word_into(diagram.order.min_edge_into, vertex, level, start)


def extremal_path(diagram, prefix_edges, kind, vertex=None):
    """The path that follows the edge word `prefix_edges` from level 0 and
    then only edges that are minimal (kind="min") / maximal (kind="max")
    into their targets: `_extremal_continuation`'s lasso from the prefix's
    end, a concrete periodic tail (least vertex chosen at branches).  An
    empty prefix needs `vertex`, a symbol of level 0; after a prefix,
    `vertex` may only repeat the prefix's end.  Raises ShapeMismatch for
    another kind, MalformedWord, or UndeterminedTail on a diagram that is
    not eventually periodic."""
    if kind not in ("min", "max"):
        raise ShapeMismatch("extremal tails take kind 'min' or 'max', got %r"
                            % (kind,))
    prefix = check_word(diagram.seq, prefix_edges)
    level = len(prefix)
    if prefix:
        v = prefix[-1][2]
        if vertex is not None and vertex != v:
            raise MalformedWord("start_vertex %r is not the prefix's "
                                "end %r" % (vertex, v))
    elif vertex is not None:
        v = vertex
        if v not in diagram.seq.alphabet(level):
            raise MalformedWord("start_vertex %r is not a symbol of "
                                "level %d" % (v, level))
    else:
        raise MalformedWord("extremal tail from an empty prefix "
                            "needs start_vertex")
    pad, cycle = _extremal_continuation(diagram, v, level, kind)
    return LazyPath(diagram, prefix + pad, cycle)


def _extremal_continuation(diagram, vertex, level, kind):
    """A continuation from (level, vertex) using only edges that are
    minimal (kind="min") / maximal (kind="max") into their targets, found
    by depth-first lasso search over (stored position, vertex) states,
    the position being `seq.index(k)`.  Returns
    (pad_edges, cycle_edges); the pad covers the levels up to where the
    cycle begins.  Deterministic: branches are tried in (target, index)
    order."""
    seq = diagram.seq
    if not seq.is_eventually_periodic:
        raise UndeterminedTail("extremal tails need an eventually periodic "
                               "diagram")
    sel = (diagram.order.min_edge_into if kind == "min"
           else diagram.order.max_edge_into)

    def options(k, v):
        mat = seq.matrix(k)
        out = []
        for b in mat.cols:
            if mat.entry(v, b):
                e = sel(k, b)
                if e[1] == v:
                    out.append(e)
        out.sort(key=lambda e: (e[2], e[3]))
        return out

    edges = []
    seen = {}  # state on the current branch -> position of its first edge
    branch = []  # (state, untried options) along the current branch
    k, v = level, vertex
    while True:
        # prefix positions are visited once; they never repeat on a branch
        st = (seq.index(k), v)
        if st in seen:
            idx = seen[st]
            break
        seen[st] = len(edges)
        branch.append((st, iter(options(k, v))))
        while branch:
            e = next(branch[-1][1], None)
            if e is not None:
                break
            del seen[branch.pop()[0]]
            if branch:
                edges.pop()
        else:
            raise MalformedWord("no all-%simal continuation from %r at "
                                "level %d" % (kind, vertex, level))
        edges.append(e)
        k, v = e[0] + 1, e[2]
    return tuple(edges[:idx]), tuple(edges[idx:])


def successor(path):
    """The next path in the anti-lexicographic order (`_step`), or None
    when every edge is maximal."""
    return _step(path, "succ")[1]


def predecessor(path):
    """The previous path (`_step`), the inverse of `successor`, or None
    when every edge is minimal."""
    return _step(path, "pred")[1]


def _step(path, which):
    """(m, next path) under the adic map (which="succ") or its inverse
    ("pred"), m the change level; (None, None) when every edge is maximal
    (minimal)."""
    edges = list(path.prefix_edges)
    m, cycle = _advance(path.diagram.order, path.start, edges,
                        path.tail_cycle, which)
    if m is None:
        return None, None
    return m, _rebuild(path.diagram, path.start, edges, cycle)


def _advance(order, start, edges, cycle, which):
    """One step of the adic map (which="succ") or its inverse ("pred") on
    the path with explicit edges `edges` (a list from level `start`,
    edited in place) and tail period `cycle` (a tuple, or None).  Returns
    (m, cycle after the step), m the change level, or (None, cycle) with
    nothing changed when every edge is maximal (minimal).

    The scan reads the explicit edges, then one tail period (enough, by
    periodicity), and one `order.level_orders(k)[b]` per level, which says
    both whether the edge is extremal and which edge is next (previous).
    A change inside the tail carries to the next tail boundary at or past
    m + 1: `edges` takes in the whole period, and the tail is the same
    pattern, unrotated, one period further.  The edge at m moves to the
    next (previous) edge into its target, and the levels below m become
    the minimal (maximal) word into its source, read through
    `min_edge_into` / `max_edge_into` (NotReduced on an unreduced base)."""
    if which == "succ":
        end, shift, pick = -1, 1, order.min_edge_into
    else:
        end, shift, pick = 0, -1, order.max_edge_into
    levels = order.level_orders
    for m, a, b, i in itertools.chain(edges, cycle or ()):
        into = levels(m)[b]
        if into[end] != (a, i):
            break
    else:
        return None, cycle
    if m >= start + len(edges):
        L = len(cycle)
        edges += cycle
        cycle = tuple([(e[0] + L,) + e[1:] for e in cycle])
    a, i = into[into.index((a, i)) + shift]
    edges[m - start] = (m, a, b, i)
    for k in range(m - 1, start - 1, -1):
        e = edges[k - start] = pick(k, a)
        a = e[1]
    return m, cycle


def _rebuild(diagram, start, edges, cycle):
    """The path with explicit edges `edges` from level `start` and tail
    `cycle`, as `_advance` left them after steps from a valid path.  It is
    valid, so it is built without the public constructor's checks:
    - the new edge at the change level m is the next / previous edge into
      the old edge's target, which is where the kept levels past m go on;
    - the levels below m are the minimal / maximal word into that edge's
      source, so they form a word over levels start..m-1 ending there;
    - a carry copies one whole period of the old valid closed tail into
      the explicit edges, so the new tail starts a whole number of periods
      past the old one (still in the periodic region) and repeats the old
      pattern unrotated; only its stored levels shift."""
    return LazyPath._derived(diagram, start, tuple(edges), cycle)


def extremal_paths(diagram, kind):
    """The minimal (kind="min") or maximal (kind="max") path set of an
    eventually periodic ordered diagram, as a list of LazyPaths.  Each path
    is eventually periodic; the count is at most the smallest cycle
    alphabet size.

    The extremal edge into each vertex is unique, so a vertex v at level P
    (the prefix length) carries at most one path: the extremal word into
    v, then `_extremal_continuation`'s lasso from v, whose cycle starts at
    v (`extremal_path`).  A vertex with no all-extremal continuation
    (MalformedWord) or, on an unreduced diagram, no extremal word down to
    level 0 (NotReduced) is skipped."""
    seq = diagram.seq
    if not seq.is_eventually_periodic:
        raise UndeterminedTail("extremal paths need an eventually periodic "
                               "diagram")
    sel = (diagram.order.min_edge_into if kind == "min"
           else diagram.order.max_edge_into)
    P = seq.prefix_len
    paths = []
    for v in seq.alphabet(P):
        try:
            paths.append(extremal_path(diagram, _word_into(sel, v, P), kind,
                                       v))
        except (MalformedWord, NotReduced):
            continue
    paths.sort(key=lambda p: p.word(P + 1))
    return paths


# ---------------------------------------------------------------------------
# nested subdiagrams: the base diagram, return times, Kac sums


def _key_level(seq, key):
    """(k, a, b) for an embedding key, with k the first level the key
    names; ShapeMismatch when it names no stored matrix of `seq`."""
    if isinstance(key, tuple) and len(key) == 4 and key[0] == "cycle" \
            and seq.is_eventually_periodic and type(key[1]) is int \
            and 0 <= key[1] < seq.period:
        return (seq.prefix_len + key[1],) + key[2:]
    last = seq.prefix_len if seq.is_eventually_periodic else seq.horizon
    if isinstance(key, tuple) and len(key) == 3 and type(key[0]) is int \
            and 0 <= key[0] < last:
        return key
    raise ShapeMismatch("embedding key %r names no stored base matrix"
                        % (key,))


class SubdiagramEmbedding:
    """A base diagram sitting inside an ambient ordered diagram: each base
    edge a -> b is one of the ambient's parallel a -> b edges, and the base
    inherits the ambient order.

    `index_map` gives, per key, the list of ambient edge indices that are
    the base's a -> b edges, in base index order.  A key names one stored
    base matrix:
    - `(k, a, b)`: level k, a prefix level of an eventually periodic base
      (k < prefix_len) or a level below a truncated base's horizon;
    - `("cycle", phase, a, b)`: the cycle matrix at 0 <= phase < period,
      that is every level k >= prefix_len with
      (k - prefix_len) % period == phase.
    A pair without a key keeps the first M(a,b) ambient edges.

    Everything is checked here, once.  The base must be nested in the
    ambient (NotInBase).  Each key must name a stored base matrix, and its
    value must list exactly M(a,b) distinct int indices, each below the
    ambient multiplicity at every level of the pair's joint layout
    (`matrixseq._compare_horizon`) that reads that matrix (ShapeMismatch).
    The map is resolved into one table per stored base matrix, which level
    k reads through `base_seq.index(k)`.

    `base` is the base as an ordered diagram over the joint layout, so that
    its order repeats with the ambient's: its edge (k, a, b, j) is the
    base's j-th a -> b edge, and the edges into each symbol are ordered as
    the ambient orders them.  Its successor map is the first-return map of
    the ambient successor to the base; `to_base`, `to_ambient` and
    `base_path` convert between the two diagrams' edges."""

    def __init__(self, ambient, base_seq, index_map=None):
        self.ambient = ambient
        self.base_seq = base_seq
        self.index_map = index_map or {}
        leq = submatrix_leq(base_seq, ambient.seq)
        if leq.is_no():
            raise NotInBase("base is not nested in the ambient: %r"
                            % (leq.witness,))
        self._tables = [{pair: tuple(range(v)) for pair, v in m.entries.items()}
                        for m in base_seq.stored]
        for key, idxs in self.index_map.items():
            k, a, b = _key_level(base_seq, key)
            count = base_seq.matrix(k).entry(a, b)
            if not isinstance(idxs, (list, tuple)) or \
                    not all(type(i) is int for i in idxs) or \
                    len(idxs) != count or len(set(idxs)) != count:
                raise ShapeMismatch("embedding at %r must list %d distinct "
                                    "ambient edge indices, got %r"
                                    % (key, count, idxs))
            self._tables[base_seq.index(k)][(a, b)] = tuple(idxs)
        P, L = _compare_horizon(base_seq, ambient.seq)
        orders = []
        for k in range(P + L):
            amb = ambient.seq.matrix(k)
            table = self._tables[base_seq.index(k)]
            for (a, b), idxs in table.items():
                n = amb.entry(a, b)
                bad = [i for i in idxs if not 0 <= i < n]
                if bad:
                    raise ShapeMismatch("embedding names the ambient edge "
                                        "%s>%s.%d at level %d, which has %d "
                                        "parallel edges" % (a, b, bad[0], k, n))
            orders.append({b: [(a, table[(a, b)].index(i)) for _, a, _, i
                               in ambient.order.incoming(k, b)
                               if i in table.get((a, b), ())]
                           for b in base_seq.matrix(k).cols})
        mats = [base_seq.matrix(k) for k in range(P + L)]
        seq = EventuallyPeriodic(mats[:P], mats[P:]) if L else Truncated(mats)
        self.base = BratteliDiagram(seq, StableOrder(seq, orders))

    def base_indices(self, k, a, b):
        """The ambient indices of the base's a -> b edges at level k."""
        return list(self._tables[self.base_seq.index(k)].get((a, b), ()))

    def is_base_edge(self, edge):
        k, a, b, i = edge
        return i in self.base_indices(k, a, b)

    def to_base(self, word):
        """An ambient edge word as a word of `base`; NotInBase when an edge
        is not a base edge."""
        out = []
        for e in word:
            k, a, b, i = e
            idxs = self.base_indices(k, a, b)
            if i not in idxs:
                raise NotInBase("edge %r is not a base edge" % (e,))
            out.append((k, a, b, idxs.index(i)))
        return tuple(out)

    def to_ambient(self, word):
        """A word of `base` as the ambient edge word it names."""
        return tuple((k, a, b, self.base_indices(k, a, b)[j])
                     for k, a, b, j in word)

    def base_path(self, path):
        """An ambient LazyPath as a path of `base`, through the public
        LazyPath constructor: NotInBase unless every edge is a base edge.  A
        periodic tail is re-cut to start at or past the base's prefix and to
        span a whole number of base periods; on a truncated base the path
        keeps its explicit edges only (HorizonExceeded past the horizon)."""
        seq = self.base.seq
        if path.tail_cycle is None or not seq.is_eventually_periodic:
            return LazyPath(self.base, self.to_base(path.prefix_edges),
                            start=path.start)
        ts = max(path.tail_start, seq.prefix_len)
        n = math.lcm(len(path.tail_cycle), seq.period)
        word = self.to_base(path.word(ts + n))
        cut = ts - path.start
        return LazyPath(self.base, word[:cut], word[cut:], start=path.start)


def anti_lex_rank(diagram, word):
    """Number of ambient words with the same final vertex that are strictly
    below `word` in the anti-lexicographic order.  Edges are tuples or
    lists (k, a, b, i); a word that is not a path of the diagram raises
    MalformedWord.  The rank is a sum of the edges' terms in the
    diagram's rank table for level 0 (word counts and running sums below
    each edge, see `_RankTable`), which grows on demand to the word's last
    level and takes O(depth^2 x edges) bits of memory."""
    return _rank(diagram, word, 0)


class _RankTable:
    """The word counts and rank terms of one diagram from one start level
    s, filled level by level as queries reach them:
    - `counts[k - s][v]`: the number of words of levels s..k-1 ending at
      v, one `vec_mul` per level;
    - `terms[(k, a, b, i)]`: the rank term of that edge, the sum of
      `counts[k - s][a']` over the edges (k, a', b, i') before it in b's
      order at level k; levels s..`ordered`-1 are in it.
    Memory is O(depth^2 x edges) bits.  The diagram's `_rank_tables` maps
    s to the table, which holds the diagram's sequence and order but no
    reference back to the diagram."""

    def __init__(self, diagram, start):
        self.seq, self.order = diagram.seq, diagram.order
        self.start = start
        self.counts = [{a: 1 for a in self.seq.alphabet(start)}]
        self.terms = {}
        self.ordered = start

    def count(self, n):
        """counts at level n >= start, extending the counts up to n."""
        counts, start = self.counts, self.start
        while len(counts) <= n - start:
            counts.append(self.seq.matrix(start + len(counts) - 1)
                          .vec_mul(counts[-1]))
        return counts[n - start]

    def term(self, e):
        """The rank term of edge e at a counted level k, adding levels
        `ordered`..k to `terms` first.  MalformedWord when e is not in its
        level's order."""
        terms, k = self.terms, e[0]
        while self.ordered <= k:
            j = self.ordered
            counts = self.counts[j - self.start]
            for b, pairs in self.order.level_orders(j).items():
                run = 0
                for a, i in pairs:
                    terms[(j, a, b, i)] = run
                    run += counts[a]
            self.ordered = j + 1
        try:
            return terms[e]
        except (KeyError, TypeError):
            self.order.incoming(k, e[2])  # MalformedWord: unknown target
            raise MalformedWord("edge %r is not in the order at level %d"
                                % (e, k)) from None


def _rank_table(diagram, start):
    """The diagram's rank table for words from level `start`."""
    tables = diagram._rank_tables
    table = tables.get(start)
    if table is None:
        table = tables[start] = _RankTable(diagram, start)
    return table


def _rank(diagram, word, start):
    """anti_lex_rank among the words that start at level `start`.  The
    word's edges are on consecutive levels from some level >= start, and
    the words below it range over all prefixes from `start`.  Raises
    MalformedWord for an edge that is not in its level's order, for levels
    that are not consecutive and for edges that do not compose.

    The rank is the sum of the edges' terms in the diagram's rank table
    for `start` (`_RankTable`: the word counts per level and the running
    sum of counts below each edge), one dict lookup per edge.  The table
    grows on demand: the first edge extends its counts to the word's last
    level, and a missing term adds the levels up to its own.  Its memory
    is O(depth^2 x edges) bits."""
    rank, prev = 0, None
    for e in word:
        if type(e) is not tuple or len(e) != 4 or type(e[0]) is not int \
                or type(e[3]) is not int:
            e = _edge_tuple(e)  # MalformedWord unless both are ints, not bools
        if prev is None:
            k = e[0]
            if k < start:
                raise MalformedWord("edge %r is not at an int level >= %d"
                                    % (e, start))
            table = _rank_table(diagram, start)
            table.count(k + len(word) - 1)
            terms = table.terms
        elif e[0] != prev[0] + 1 or e[1] != prev[2]:
            raise MalformedWord("edges %r and %r do not compose" % (prev, e))
        try:
            rank += terms[e]
        except (KeyError, TypeError):
            rank += table.term(e)
        prev = e
    return rank


def _base_step(embedding, path):
    """The ambient rank difference from a path of `embedding.base` to its
    base successor, among the words that start at the path's first level
    s, or None when the path has no base successor.  The successor changes
    the path at level m, and only levels s..m enter the difference: the
    rank terms of the kept edges beyond it are the same on both sides."""
    m, nxt = _step(path, "succ")
    if nxt is None:
        return None
    diagram, start = embedding.ambient, path.start
    r = _rank(diagram, embedding.to_ambient(nxt.word(m + 1)), start) \
        - _rank(diagram, embedding.to_ambient(path.word(m + 1)), start)
    if r < 1:
        raise InternalError("return time %d is not positive" % r)
    return r


def _word_path(embedding, word):
    """A nonempty ambient edge word as a path of `embedding.base`."""
    if not word:
        raise ShapeMismatch("return times need a nonempty edge word")
    return embedding.base_path(LazyPath(embedding.ambient, word,
                                        start=_edge_tuple(word[0])[0]))


def return_time(embedding, p):
    """Return time of a base point under the ambient successor: 1 + the
    number of ambient paths strictly between the point and its base
    successor.  Accepts an edge word or a LazyPath.  Returns math.inf when
    the path is base-maximal everywhere (no base successor); a finite word
    with no non-base-maximal edge cannot certify either way and raises
    UndeterminedTail."""
    if isinstance(p, LazyPath):
        path = embedding.base_path(p)
    else:
        path = _word_path(embedding, tuple(p))
    r = _base_step(embedding, path)
    if r is None:
        if path.tail_cycle:
            return math.inf
        raise UndeterminedTail("all explicit edges are base-maximal; the "
                               "tail is unknown")
    return r


def cyclic_return_time(embedding, word):
    """Return time of a base word of depth d under the cyclic adic rotation
    on depth-d ambient words within its endpoint class (the words over the
    same levels): the number of ambient steps to the next base word,
    wrapping the maximal word to the minimal one.  Takes an edge word only:
    a LazyPath raises MalformedWord (see `return_time` for paths)."""
    if isinstance(word, LazyPath):
        raise MalformedWord("cyclic return times take an edge word, not a "
                            "LazyPath")
    word = tuple(map(_edge_tuple, word))
    path = _word_path(embedding, word)
    r = _base_step(embedding, path)
    if r is None:
        # wrap to the minimal base word ending at the same vertex; the
        # word's rank is below the class size, so r >= 1
        start, end, v = path.start, path.tail_start, word[-1][2]
        diagram = embedding.ambient
        first = embedding.to_ambient(
            min_word_into(embedding.base, v, end, start))
        r = _rank_table(diagram, start).count(end)[v] \
            - _rank(diagram, word, start) + _rank(diagram, first, start)
    return r


def kac_partial_sum(embedding, base_measure, depth):
    """Kac sum at truncation depth d: sum of r(w) * nu(w) over all base
    words w of d edges, with r the cyclic return time at that depth.  For a
    central base measure (mass depending only on the endpoint) the cyclic
    return times within an endpoint class sum to the ambient class size, so
    the total collapses to sum_v N_ambient(v) * w_d[v] over endpoints v
    reached by base words; that aggregate is computed here exactly.
    Nondecreasing in depth; equals the tower mass when it is finite.

    The class sizes are the word counts at level `depth` in the rank
    tables of the ambient and of `embedding.base` from level 0 (word
    counts and rank terms, see `_RankTable`).  They grow on demand, so a
    deeper sum counts the new levels only, and take O(depth^2 x edges)
    bits of memory."""
    if depth < 1:
        raise ShapeMismatch("Kac sums need depth >= 1, got %d" % depth)
    amb_counts = _rank_table(embedding.ambient, 0).count(depth)
    base_counts = _rank_table(embedding.base, 0).count(depth)
    total = Fraction(0)
    for v, n in amb_counts.items():
        if base_counts.get(v, 0) > 0:
            # endpoint mass of a depth-`depth` base cylinder ending at v
            head = min_word_into(embedding.base, v, depth)
            total += n * base_measure.cylinder_mass(head)
    return total


# ---------------------------------------------------------------------------
# orbit simulation


def simulate_orbit(path, steps, depth=2):
    """Iterate the successor map and collect exact statistics: visit counts
    and frequencies of the depth-limited cylinders, and the histogram of
    change levels.  ShapeMismatch when `steps` or `depth` is negative.

    The walk holds one edge list, which `_advance` edits in place, and
    builds one path, `final`, at the end.  A step never changes the levels
    past the explicit edges, so a visit word that reaches past them reads
    those levels from `path`."""
    if steps < 0 or depth < 0:
        raise ShapeMismatch("orbits need steps >= 0 and depth >= 0, got "
                            "steps=%d, depth=%d" % (steps, depth))
    diagram, start, cycle = path.diagram, path.start, path.tail_cycle
    edges, width = list(path.prefix_edges), max(depth - start, 0)
    visits = {}
    change_levels = {}
    performed = 0
    while True:
        word = tuple(edges[:width]) if width <= len(edges) else \
            tuple(edges) + path.word(depth)[len(edges):]
        visits[word] = visits.get(word, 0) + 1
        if performed == steps:
            break
        m, cycle = _advance(diagram.order, start, edges, cycle, "succ")
        if m is None:
            break
        change_levels[m] = change_levels.get(m, 0) + 1
        performed += 1
    n = sum(visits.values())
    freqs = {w: Fraction(c, n) for w, c in visits.items()}
    return {"visits": visits, "frequencies": freqs,
            "change_levels": change_levels, "steps_performed": performed,
            "final": _rebuild(diagram, start, edges, cycle)}

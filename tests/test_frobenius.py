import collections
import gc
import json
import os
import random
import subprocess
import sys
import weakref

import pytest

from adic.errors import HorizonExceeded, InternalError, NotReduced
from adic.matrixseq import (
    GenMatrix, EventuallyPeriodic, Truncated, constant, from_json,
    partial_product, reduce_sequence)
from adic import frobenius
from adic.frobenius import (
    strongly_connected_components,
    stream_decompose,
    frobenius_form,
    _certify,
)
from adic.measures import communicating_streams, _atom_path
from adic.gallery import EXAMPLES, seven_matrix_example, three_cycle

from conftest import random_reduced_sequence


def test_scc_basic():
    cases = [
        ({1: [2], 2: [1, 3], 3: [3], 4: []}, [[1, 2], [3], [4]]),
        # a cycle deeper than the default recursion limit
        ({i: [(i + 1) % 5000] for i in range(5000)}, [list(range(5000))]),
    ]
    for graph, expected in cases:
        comps = strongly_connected_components(graph)
        assert sorted(sorted(c) for c in comps) == expected


def test_stream_decompose_requires_reduced():
    seq = constant([[2, 1], [0, 0]], ["0", "1"])
    with pytest.raises(NotReduced):
        stream_decompose(seq)


def test_triangular_two_streams():
    dec = stream_decompose(constant([[2, 1], [0, 3]], ["0", "1"]))
    assert len(dec.streams) == 2
    members = [set(s.members_at(dec.valid_from)) for s in dec.streams]
    assert {"0"} in members and {"1"} in members


def test_primitive_single_stream():
    dec = stream_decompose(constant([[1, 1], [1, 1]], ["0", "1"]))
    assert len(dec.streams) == 1
    assert set(dec.streams[0].members_at(dec.valid_from)) == {"0", "1"}


def test_period_two_cycle_splits_into_rotating_stream():
    # permutation part rotates with period 2: one stream of period 2
    dec = stream_decompose(constant([[0, 1], [1, 0]], ["0", "1"]))
    assert len(dec.streams) == 2
    for s in dec.streams:
        assert s.rho == 2
        assert len(s.members_at(dec.valid_from)) == 1


def test_seven_matrix_golden():
    d = seven_matrix_example()
    dec = stream_decompose(d.seq)
    assert len(dec.streams) == 3
    got = [dec.block_matrix(k).to_lists() for k in range(7)]
    assert got == d.expected["block_matrices"]


def test_block_matrices_are_zero_one():
    rng = random.Random(5)
    for _ in range(20):
        seq = random_reduced_sequence(rng)
        dec = stream_decompose(seq)
        for k in range(dec.valid_from, dec.valid_from + dec.lcm_period + 1):
            assert set(dec.block_matrix(k).entries.values()) <= {1}


def test_streams_certified_primitive():
    rng = random.Random(17)
    for _ in range(20):
        seq = random_reduced_sequence(rng)
        dec = stream_decompose(seq)
        certs = dec.certificates["streams"]
        for s in dec.streams:
            assert certs[s.index].is_yes()


def test_frobenius_form_triangular_and_conjugate():
    d = seven_matrix_example()
    form = frobenius_form(d.seq)
    # the cycle matrix of the form is square and repeats every period
    g = form.form
    assert g.matrix(1).rows == g.matrix(1).cols
    assert g.matrix(1) == g.matrix(1 + g.period)


def test_frobenius_form_gathering_times_and_permutations():
    # the times are 0, then P when P > 0, then P + G and P + 2G, where
    # G = L * (pool symbols over one period + 1); the form's levels start
    # at the times before P + G, and each has a symbol order
    golden = EXAMPLES["golden-mean"]().seq
    pooled = constant([[1, 1, 0], [0, 0, 1], [0, 0, 1]], ["0", "1", "2"])
    seven = seven_matrix_example().seq
    for seq, times in ((golden, [0, 1, 2]), (pooled, [0, 2, 4]),
                       (seven, [0, 5, 7, 9])):
        form = frobenius_form(seq)
        assert form.gathering_times == times
        assert sorted(form.permutations) == times[:-2]
        for k, order in form.permutations.items():
            assert sorted(order) == sorted(seq.alphabet(k))
        for j, (i, n) in enumerate(zip(times, times[1:])):
            assert form.form.matrix(j) == partial_product(seq, i, n - 1)


def test_stationary_frobenius_three_cycle():
    # the period-3 cycle splits into three primitive 1x1 streams
    dec = stream_decompose(three_cycle().seq)
    assert len(dec.streams) == 3
    assert dec.lcm_period == 3


def test_stationary_frobenius_triangular_example():
    dec = stream_decompose(constant([[2, 1], [0, 3]], ["0", "1"]))
    assert len(dec.streams) == 2
    assert dec.lcm_period == 1


def stationary_graph(symbols, edges):
    """The stationary 0-1 sequence with the given edges."""
    labs = tuple(symbols)
    return EventuallyPeriodic([], [GenMatrix(labs, labs,
                                             {e: 1 for e in edges})])


def stream_chain(n):
    """n one-symbol streams s_i -> s_i, each feeding the next."""
    labs = ["s%03d" % i for i in range(n)]
    edges = [(a, a) for a in labs] + list(zip(labs, labs[1:]))
    return stationary_graph(labs, edges)


def bfs_reach(dec, owner):
    """Reference for dec.reach: breadth-first search from every node (k, a)
    of levels 0..P+L-1, where level P+L wraps to P, collecting owner(k, a)
    over the periodic nodes visited (None for a pool node)."""
    seq, P, L = dec.seq, dec.valid_from, dec.lcm_period
    succs = {}
    for k in range(P + L):
        nxt = k + 1 if k + 1 < P + L else P
        m = seq.matrix(k)
        for a in m.rows:
            succs[(k, a)] = []
        for (a, b) in m.entries:
            succs[(k, a)].append((nxt, b))
    out = {}
    for start in succs:
        seen = {start}
        queue = collections.deque(seen)
        while queue:
            for nxt in succs[queue.popleft()]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        out[start] = frozenset(owner(*node) for node in seen
                               if node[0] >= P and owner(*node) is not None)
    return out


def test_reach_matches_bfs():
    rng = random.Random(29)
    seqs = [random_reduced_sequence(rng, max_dim=6, max_period=4,
                                    max_prefix=2) for _ in range(60)]
    prefixed = 0
    for seq in seqs + [stream_chain(400)]:
        dec = stream_decompose(seq)
        P, L = dec.valid_from, dec.lcm_period
        got = {(k, a): dec.reach(k, a)
               for k in range(P + L) for a in seq.alphabet(k)}
        assert got == bfs_reach(dec, dec.stream_of)
        prefixed += P > 0
    assert prefixed >= 10


def recursive_longest_pool_path(dec):
    """Reference for the pool certificate: the longest pool-only path of
    the lcm-period lifted graph, by memoised recursion."""
    seq, P, T, L = dec.seq, dec.valid_from, dec.period, dec.lcm_period
    memo = {}

    def longest_from(m, a):
        if (m, a) not in memo:
            nxt = dec.pool_members_at(P + m + 1)
            memo[(m, a)] = max((1 + longest_from((m + 1) % L, b)
                                for (x, b) in seq.cycle[m % T].entries
                                if x == a and b in nxt), default=0)
        return memo[(m, a)]

    return max((longest_from(m, a) for m in range(L)
                for a in dec.pool_members_at(P + m)), default=0)


def random_triangular_sequence(rng):
    """A reduced sequence whose cycle matrices are upper triangular on one
    alphabet, with a few diagonal loops: long pool paths between streams."""
    labs = tuple("%02d" % j for j in range(rng.randrange(4, 13)))
    cycle = []
    for _ in range(rng.randrange(1, 3)):
        entries = {(a, b): 1 for i, a in enumerate(labs) for b in labs[i + 1:]
                   if rng.random() < 0.3}
        for a in labs:
            if a == labs[-1] or rng.random() < 0.2:
                entries[(a, a)] = 1
        cycle.append(GenMatrix(labs, labs, entries))
    return reduce_sequence(EventuallyPeriodic([], cycle))[0]


def test_pool_longest_path_matches_recursive_search():
    rng = random.Random(31)
    lengths = set()
    for _ in range(300):
        seq = random_triangular_sequence(rng)
        dec = stream_decompose(seq)
        expected = recursive_longest_pool_path(dec)
        assert dec.certificates["pool"]["longest_pool_path"] == expected
        lengths.add(expected)
    assert len(lengths) > 2


def test_pool_certificate_rejects_a_cycle():
    dec = stream_decompose(constant([[1, 1], [0, 1]], ["0", "1"]))
    # drop stream 2, so that its loop is left in the pool
    dec.streams = dec.streams[:1]
    with pytest.raises(InternalError, match="pool contains a cycle"):
        _certify(dec)


def block_key(label):
    return (int(label[1:]), 0) if label.startswith("P") else (int(label), 1)


def test_frobenius_form_prefix_symbol_into_pool_group():
    # prefix symbol 5 reaches stream 2 only through pool group P2 at level
    # 1; labelled stream 2 it sat below the diagonal and the form raised
    seq = from_json(json.loads("""
    {"kind": "eventually_periodic",
     "alphabets": [["9","7","1","8","2","4","3","6","5","0"],
                   ["9","7","1","8","2","4"], ["9","7"]],
     "prefix": [[[0,1,0,0,0,1],[0,0,1,0,1,1],[0,0,0,1,0,0],[0,1,1,1,1,0],
                 [1,1,0,0,1,0],[2,1,0,1,0,1],[1,1,1,1,1,2],[1,1,0,0,0,0],
                 [0,0,0,0,0,1],[1,1,0,2,1,0]]],
     "cycle": [[[0,1],[1,0],[1,1],[0,1],[0,1],[0,1]],
               [[1,1,1,2,1,1],[0,0,0,1,1,0]]]}"""))
    form = frobenius_form(seq)
    dec = form.decomposition
    assert dec.block_assignment(0)["5"] == ("pool", 2)
    assert dec.stream_of(0, "5") == 2
    for k in range(dec.valid_from + dec.lcm_period):
        for (r, c) in dec.block_matrix(k).entries:
            assert block_key(r) <= block_key(c)


CHAIN_SCRIPT = """
from adic.frobenius import stream_decompose
from test_frobenius import stationary_graph
labs = ["s0"] + ["p%04d" % i for i in range(1, 1501)] + ["s1"]
edges = [("s0", "s0"), ("s1", "s1")] + list(zip(labs, labs[1:]))
dec = stream_decompose(stationary_graph(labs, edges))
print(len(dec.streams), dec.certificates["pool"]["longest_pool_path"])
"""


def test_long_pool_chain_under_every_hash_seed():
    # the pool certificate walks a 1500-node chain; its start node follows
    # set (hash) order, so run it under several hash seeds
    here = os.path.dirname(os.path.abspath(__file__))
    for hash_seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
                   PYTHONPATH=os.pathsep.join(sys.path))
        r = subprocess.run([sys.executable, "-c", CHAIN_SCRIPT], cwd=here,
                           env=env, capture_output=True, text=True,
                           timeout=60)
        assert r.returncode == 0, r.stderr
        assert r.stdout.split() == ["2", "1499"]


def test_members_at_matches_a_scan_of_the_scc():
    """Reference: at a periodic level, the symbols of the stream's SCC in
    the phase and cyclic class of level k, found by scanning the SCC; at a
    prefix level, the symbols whose forward search reaches that stream as
    the least one it reaches."""
    rng = random.Random(71)
    seqs = [seven_matrix_example().seq, three_cycle().seq]
    seqs += [random_reduced_sequence(rng, max_dim=5) for _ in range(40)]
    prefixed = 0
    for seq in seqs:
        dec = stream_decompose(seq)
        P, T, L = dec.valid_from, dec.period, dec.lcm_period
        prefixed += P > 0

        def scan(k, a):
            for s in dec.streams:
                c = (s.residue + k - P) % s.rho
                if s.ell.get(((k - P) % T, a)) == c:
                    return s.index
            return None

        reach = bfs_reach(dec, scan)
        for s in dec.streams:
            for k in range(P + 3 * L + 1):
                if k < P:
                    want = frozenset(a for a in seq.alphabet(k)
                                     if reach[(k, a)]
                                     and min(reach[(k, a)]) == s.index)
                else:
                    c = (s.residue + k - P) % s.rho
                    want = frozenset(a for (ph, a) in s.scc
                                     if ph == (k - P) % T
                                     and s.ell[(ph, a)] == c)
                assert s.members_at(k) == want
    assert prefixed >= 5


def test_decomposition_index_mirrors_the_layout():
    # prefix levels, then one lcm period repeating; levels that share a
    # position share their memberships, reach and blocks
    rng = random.Random(73)
    for _ in range(30):
        dec = stream_decompose(random_reduced_sequence(rng, max_dim=4))
        P, L = dec.valid_from, dec.lcm_period
        with pytest.raises(IndexError):
            dec.index(-1)
        for k in range(P + 3 * L):
            p = dec.index(k)
            assert p == (k if k < P else P + (k - P) % L)
            assert dec.block_assignment(k) == dec.block_assignment(p)
            for a in dec.seq.alphabet(k):
                assert dec.reach(k, a) == dec.reach(p, a)
                assert dec.stream_of(k, a) == dec.stream_of(p, a)
    # a window that ends rectangular: every symbol up to the horizon is in
    # the one pool block, and nothing lies beyond it
    t = Truncated([GenMatrix.from_lists(("0", "1"), ("0", "1"),
                                        [[1, 1], [0, 1]]),
                   GenMatrix.from_lists(("0", "1"), ("0",), [[1], [1]])])
    dec = stream_decompose(t)
    assert dec.provisional and dec.streams == []
    assert [dec.block_assignment(k) for k in range(3)] == [
        {"0": ("pool", 1), "1": ("pool", 1)}] * 2 + [{"0": ("pool", 1)}]
    assert dec.block_matrix(0).to_lists() == [[1]]
    with pytest.raises(HorizonExceeded):
        dec.block_assignment(3)


def test_square_ended_window_readers_stop_at_the_horizon():
    # the window is decomposed through its periodic extension, whose own
    # horizon is None; the readers still stop at the window's horizon 3
    dec = stream_decompose(Truncated([GenMatrix.from_lists(
        ("0", "1"), ("0", "1"), [[1, 1], [1, 0]])] * 3))
    assert dec.provisional and dec.horizon == 3 and dec.valid_from == 3
    assert dec.block_matrix(2).to_lists() == [[1]]
    assert dec.stream_of(3, "0") == 1
    with pytest.raises(HorizonExceeded):
        dec.block_matrix(10)
    with pytest.raises(HorizonExceeded):
        dec.stream_of(50, "0")
    with pytest.raises(HorizonExceeded):
        dec.pool_members_at(4)
    # a stream's own members are not bounded: rays and atoms walk a full
    # period of the extension
    assert dec.streams[0].members_at(50) == {"0", "1"}
    with pytest.raises(IndexError):
        dec.streams[0].members_at(-1)
    # the anchor level valid_from stays readable past a shorter horizon
    dec = stream_decompose(Truncated([GenMatrix.from_lists(
        ("a", "b", "c"), ("a", "b", "c"),
        [[1, 0, 0], [1, 0, 0], [0, 1, 0]])]))
    assert dec.horizon == 1 and dec.valid_from == 2
    assert dec.pool_members_at(2) == frozenset()
    assert dec.stream_of(2, "a") == 1
    with pytest.raises(HorizonExceeded):
        dec.block_assignment(3)


# two loops, and a prefix symbol that reaches only the first
PREFIXED = from_json({"alphabets": [["0"], ["0", "1"]],
                      "prefix": [[[1, 1]]], "cycle": [[[1, 1], [0, 1]]]})


def test_prefix_members_are_read_only_after_the_table_is_filled():
    # the ordering step builds the streams; their prefix members come with
    # the table, and a read before it is an internal error, not an empty set
    dec = frobenius._stream_order(PREFIXED)
    assert dec.valid_from == 1
    assert [s.members_at(1) for s in dec.streams] == [{"0"}, {"1"}]
    with pytest.raises(InternalError):
        dec.streams[0].members_at(0)
    dec.certificates
    assert [s.members_at(0) for s in dec.streams] == [{"0"}, frozenset()]


def test_a_dropped_decomposition_is_freed_without_the_collector():
    # no stream refers back to its decomposition, so reference counting
    # frees a decomposition, its streams and what they cache
    enabled = gc.isenabled()
    gc.disable()
    try:
        dec = stream_decompose(PREFIXED)
        for s in dec.streams:
            s.perron_root, repr(s)
            assert not any(isinstance(v, frobenius.StreamDecomposition)
                           for v in vars(s).values())
        refs = [weakref.ref(x) for x in [dec] + dec.streams]
        del dec, s
        assert all(r() is None for r in refs)
    finally:
        if enabled:
            gc.enable()


def old_has_single_path(s):
    """Reference for a stream that carries a single path (one that
    measures._atom_path gives an atom for): the induced cycle matrices
    are 1x1 with entry 1, and the backward extension is single too."""
    cyc = s.induced_cycle()
    for j in range(s.lcm_period):
        m = cyc.matrix(j)
        if len(m.rows) != 1 or len(m.cols) != 1 or m.entry_sum() != 1:
            return False
    for k in range(s.valid_from):
        members = s.members_at(k)
        if len(members) > 1:
            return False
        if members:
            nxt = s.members_at(k + 1)
            m = s.seq.matrix(k)
            if sum(m.entry(a, b) for a in members for b in nxt) != 1:
                return False
    return True


def old_atom_path(dec, s):
    """Reference for measures._atom_path: the prefix and the cycle walked
    separately."""
    P, L = dec.valid_from, dec.lcm_period
    start = s.starting_time
    prefix_edges = []
    for k in range(start, P):
        (a,), (b,) = s.members_at(k), s.members_at(k + 1)
        prefix_edges.append((k, a, b, 0))
    cycle_edges = []
    for j in range(L):
        (a,), (b,) = s.members_at(P + j), s.members_at(P + j + 1)
        cycle_edges.append((P + j, a, b, 0))
    return {"start": start, "prefix_edges": prefix_edges,
            "cycle_edges": cycle_edges}


def test_stream_relations_match_the_scans():
    """Communicating streams against a breadth-first search; single paths
    and atoms against the scans they replaced."""
    gallery = []
    for make in EXAMPLES.values():
        obj = make()
        gallery += ([obj.base_seq, obj.ambient.seq] if hasattr(obj, "base_seq")
                    else [obj.seq])
    rng = random.Random(79)
    seqs = [reduce_sequence(seq)[0] for seq in gallery]
    seqs += [random_reduced_sequence(rng) for _ in range(200)]
    counts = collections.Counter()
    for seq in seqs:
        dec = stream_decompose(seq)
        P, L = dec.valid_from, dec.lcm_period
        counts["prefixed"] += P > 0
        reach = bfs_reach(dec, dec.stream_of)
        for s in dec.streams:
            want = sorted({o.index for o in dec.streams if o is not s
                           for j in range(L) for a in o.members_at(P + j)
                           if s.index in reach[(P + j, a)]})
            assert communicating_streams(dec, s) == want
            single = old_has_single_path(s)
            atom = _atom_path(dec, s)
            assert (atom is not None) == single
            if single:
                assert atom == old_atom_path(dec, s)
            counts["communicating"] += bool(want)
            counts["atomic"] += single
    assert counts["prefixed"] >= 100, counts
    assert counts["communicating"] >= 15, counts
    assert counts["atomic"] >= 30, counts


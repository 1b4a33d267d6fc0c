import gc
import itertools
import math
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from adic.errors import (
    AdicError, HorizonExceeded, MalformedWord, NotInBase, NotReduced,
    ShapeMismatch, UndeterminedTail)
from adic.matrixseq import (
    EventuallyPeriodic,
    GenMatrix,
    Truncated,
    constant,
    from_int_matrices,
    partial_product,
)
from adic.diagram import BratteliDiagram, StableOrder, enumerate_paths
from adic.measures import classify_measures, CentralMeasure
from adic.vershik import (
    _extremal_continuation,
    LazyPath,
    _word_into,
    min_word_into,
    successor,
    predecessor,
    extremal_path,
    extremal_paths,
    SubdiagramEmbedding,
    anti_lex_rank,
    return_time,
    cyclic_return_time,
    kac_partial_sum,
    simulate_orbit,
)
from adic.gallery import chacon, ics, odometer
from adic.diagram import check_word
from adic import gallery
import adic.vershik as vershik

from conftest import (
    extremal_paths_reference,
    first_special_reference,
    kac_partial_sum_brute,
    predecessor_reference,
    random_ep_sequence,
    random_nested_pair,
    random_reduced_sequence,
    rank_reference,
    simulate_orbit_reference,
    successor_at_reference,
    word_counts_reference,
)


def dyadic():
    return odometer(2)


# ---------------------------------------------------------------------------
# paths and ranks


def test_min_max_word_into():
    d = BratteliDiagram(constant([[2]], ["0"]))
    assert min_word_into(d, "0", 2) == ((0, "0", "0", 0), (1, "0", "0", 0))
    assert _word_into(d.order.max_edge_into, "0", 2) == \
        ((0, "0", "0", 1), (1, "0", "0", 1))


def test_rank_is_bijective_per_endpoint_class_random():
    rng = random.Random(13)
    for _ in range(15):
        seq = random_reduced_sequence(rng, max_dim=3)
        d = BratteliDiagram(seq)
        for depth in (2, 4):
            classes = {}
            for w in enumerate_paths(seq, depth):
                classes.setdefault(w[-1][2], []).append(
                    anti_lex_rank(d, w))
            for ranks in classes.values():
                assert sorted(ranks) == list(range(len(ranks)))


def _rank_by_products(d, word):
    """Reference rank: one product of levels 0..k-1 per lower edge at
    level k, summed over the word."""
    def count_into(k, vertex):
        if k == 0:
            return 1
        ones = {a: 1 for a in d.seq.alphabet(0)}
        return partial_product(d.seq, 0, k - 1).vec_mul(ones)[vertex]
    return sum(count_into(e[0], low[1]) for e in word
               for low in itertools.takewhile(
                   lambda low: low != e, d.order.incoming(e[0], e[2])))


def test_anti_lex_rank_matches_product_formula():
    rng = random.Random(17)
    diagrams = [dyadic(), chacon()] + [
        BratteliDiagram(random_reduced_sequence(rng, max_dim=3))
        for _ in range(8)]
    for d in diagrams:
        words = list(itertools.islice(enumerate_paths(d.seq, 5), 150))
        for w in words:
            assert anti_lex_rank(d, w) == _rank_by_products(d, w)
            # the same word with its first two levels cut off
            assert anti_lex_rank(d, w[2:]) == _rank_by_products(d, w[2:])


# words that are no paths of odometer(3)
MALFORMED_ODOMETER3_WORDS = [
    [(0, "0", "0", 3)],                        # index beyond the order
    [(0, "0", "0", "1")],                      # str index
    [(0, "0", "0", 1), (2, "0", "0", 1)],      # a level skipped
    [(1, "0", "0", 1), (1, "0", "0", 1)],      # a level repeated
    [("0", "0", "0", 1)],                      # str level
    [(0, "0", "0")],                           # three items
    [5],
]
# chacon's edges 0->1 and 0->0 at level 0 do not compose
MALFORMED_CHACON_WORD = [(0, "0", "1", 0), (1, "0", "0", 0)]


def test_anti_lex_rank_reads_list_edges_and_rejects_malformed_words():
    d = odometer(3)
    assert anti_lex_rank(d, [[0, "0", "0", 1], [1, "0", "0", 1]]) == \
        anti_lex_rank(d, [(0, "0", "0", 1), (1, "0", "0", 1)]) == 4
    c = chacon()
    for w in itertools.islice(enumerate_paths(c.seq, 4), 40):
        assert anti_lex_rank(c, [list(e) for e in w]) == anti_lex_rank(c, w)
    for word in MALFORMED_ODOMETER3_WORDS:
        with pytest.raises(MalformedWord):
            anti_lex_rank(d, word)
    with pytest.raises(MalformedWord):
        anti_lex_rank(c, MALFORMED_CHACON_WORD)


@pytest.mark.parametrize("word", [
    [(True, "0", "0", 2)],
    [(0, "0", "0", True)],
    [(0, "0", "0", 0), (True, "0", "0", 2)],
    [(0, "0", "0", 0), (1, "0", "0", True)],
    [(0, "0", "0", 1.0)],
])
def test_anti_lex_rank_rejects_levels_and_indices_that_are_not_ints(word):
    # True and 1.0 equal 1 as dict keys, so a tuple edge must not reach the
    # rank table unchecked: it would be read as the edge with 1 in its place
    for form in (word, [list(e) for e in word]):
        with pytest.raises(MalformedWord, match="not .level, source"):
            anti_lex_rank(odometer(3), form)


def test_rank_and_kac_sum_make_no_matrix_products(mul_calls):
    d = dyadic()
    word = tuple((k, "0", "0", 1) for k in range(12))
    mul_calls.clear()
    assert anti_lex_rank(d, word) == 2 ** 12 - 1
    assert mul_calls == []
    emb = ics("triadic")
    mu = _base_measure(emb.base_seq)
    mul_calls.clear()
    assert kac_partial_sum(emb, mu, 8) == Fraction(3, 2) ** 8
    assert mul_calls == []


def _words_from(seq, start, depth):
    """All words of `depth` edges from level `start`."""
    words = [()]
    for k in range(start, start + depth):
        m = seq.matrix(k)
        words = [w + ((k, a, b, i),) for w in words
                 for a in ([w[-1][2]] if w else m.rows)
                 for b in m.cols for i in range(m.entry(a, b))]
    return words


def _outcome(f, *args):
    """f(*args), or the type and message of the AdicError it raises."""
    try:
        return f(*args)
    except AdicError as exc:
        return type(exc), str(exc)


def test_rank_table_agrees_with_the_reference_engine():
    # words of depth 1..12 queried in shuffled depth order on a fresh
    # diagram: the table grows, then serves shorter words and cut words
    rng = random.Random(2401)
    seqs = [chacon().seq, ics("cover").seq, odometer([2, 3]).seq] + [
        random_reduced_sequence(rng, max_dim=4) for _ in range(27)]
    checked = 0
    for seq in seqs:
        d = _shuffled_diagram(rng, seq)
        depths = list(range(1, 13)) * 2
        rng.shuffle(depths)
        for depth in depths:
            w = _random_word(rng, d, depth)
            for c in range(depth):
                assert anti_lex_rank(d, w[c:]) == rank_reference(d, w[c:])
                checked += 1
        assert vershik._rank_table(d, 0).counts == \
            word_counts_reference(seq, 11)
    assert checked >= 4000


def test_return_times_above_level_zero_agree_with_the_reference_ranks():
    # over levels s..s+d-1, queried in shuffled (s, d) order, the table
    # ranks every ambient word as the reference does from level s; in each
    # endpoint class, in reference rank order, a base word's cyclic return
    # time is the number of steps to the next base word (wrapping)
    rng = random.Random(2402)
    ranked = timed = above = 0
    for _ in range(40):
        base, amb = random_nested_pair(rng, max_dim=3)
        emb = SubdiagramEmbedding(_shuffled_diagram(rng, amb), base)
        windows = [(s, d) for s in range(4) for d in range(1, 4)]
        rng.shuffle(windows)
        for s, depth in windows:
            classes = {}
            for w in _words_from(amb, s, depth):
                r = vershik._rank(emb.ambient, w, s)
                assert r == rank_reference(emb.ambient, w, s)
                classes.setdefault(w[-1][2], {})[r] = w
                ranked += 1
            for by_rank in classes.values():
                words = [by_rank[r] for r in range(len(by_rank))]
                pos = [j for j, w in enumerate(words)
                       if all(emb.is_base_edge(e) for e in w)]
                for n, j in enumerate(pos):
                    steps = (pos[(n + 1) % len(pos)] - j) % len(words) \
                        or len(words)
                    assert cyclic_return_time(emb, words[j]) == steps
                    if n + 1 < len(pos):
                        assert return_time(emb, words[j]) == steps
                    timed += 1
                    above += s > 0
        for s, table in emb.ambient._rank_tables.items():
            n = s + len(table.counts) - 1
            assert table.counts == word_counts_reference(amb, n, s)[s:]
    assert ranked >= 6000 and timed >= 2000 and above >= 1500


def test_rank_table_on_a_truncated_diagram_stops_at_the_horizon():
    # a word past the horizon raises HorizonExceeded as the reference does,
    # and the next query is still right
    rng = random.Random(2403)
    past = checked = 0
    for _ in range(12):
        seq = random_reduced_sequence(rng, max_dim=3)
        horizon = rng.randint(2, 5)
        t = Truncated([seq.matrix(k) for k in range(horizon)])
        d = BratteliDiagram(t, StableOrder(
            t, _shuffled_orders(rng, t.terms)))
        beyond = BratteliDiagram(seq)
        depths = list(range(1, horizon + 3)) * 3
        rng.shuffle(depths)
        for depth in depths:
            w = _random_word(rng, beyond, depth)
            for c in range(depth):
                got = _outcome(anti_lex_rank, d, w[c:])
                assert got == _outcome(rank_reference, d, w[c:])
                if depth > horizon:
                    assert got[0] is HorizonExceeded
                    past += 1
                checked += 1
    assert past >= 100 and checked >= 300


def test_malformed_words_raise_as_the_reference_engine():
    # the same exception type and message, on fresh and on filled tables
    for filled in (False, True):
        d, c = odometer(3), chacon()
        if filled:
            anti_lex_rank(d, tuple((k, "0", "0", 2) for k in range(6)))
            anti_lex_rank(c, tuple((k, "1", "1", 2) for k in range(6)))
        cases = [(d, w) for w in MALFORMED_ODOMETER3_WORDS] + [
            (c, MALFORMED_CHACON_WORD),
            (d, [(0, "0", "1", 0)]),                # unknown target
            (d, [(0, "0", "0", [1])]),              # unhashable index
            (c, [(0, "1", "1", 0), (1, "1", "1", 9)])]
        for diagram, word in cases:
            want = _outcome(rank_reference, diagram, word)
            assert want[0] is MalformedWord
            assert _outcome(anti_lex_rank, diagram, word) == want


def test_rank_table_counts_each_level_once(monkeypatch, mul_calls):
    rng = random.Random(2404)
    seq = random_reduced_sequence(rng, max_dim=4)
    d = _shuffled_diagram(rng, seq)
    words = [_random_word(rng, d, 12) for _ in range(1000)]
    want = [rank_reference(d, w) for w in words]
    vec_muls = []
    vec_mul = GenMatrix.vec_mul

    def counting_vec_mul(self, vec):
        vec_muls.append(None)
        return vec_mul(self, vec)

    monkeypatch.setattr(GenMatrix, "vec_mul", counting_vec_mul)
    mul_calls.clear()
    assert [anti_lex_rank(d, w) for w in words] == want
    assert 0 < len(vec_muls) <= 13
    assert mul_calls == []


def test_a_filled_rank_table_keeps_no_reference_to_its_diagram():
    d = chacon()
    anti_lex_rank(d, tuple((k, "1", "1", 2) for k in range(8)))
    emb = ics("triadic")
    mu = _base_measure(emb.base_seq)
    assert return_time(emb, ((1, "0", "0", 0), (2, "0", "0", 2))) == 2
    assert kac_partial_sum(emb, mu, 6) == Fraction(3, 2) ** 6
    held = (d, emb.ambient, emb.base)
    assert all(x._rank_tables for x in held)
    refs = [weakref.ref(x) for x in held]
    gc.disable()
    try:
        del d, emb, held
        assert [r() for r in refs] == [None, None, None]
    finally:
        gc.enable()


def _any_tail(d, vertex, level):
    """Some valid periodic continuation from `vertex` at `level`: follow
    first available edges until a (phase, vertex) state repeats."""
    seq = d.seq
    P, T = seq.prefix_len, seq.period
    seen = {}
    edges = []
    k, cur = level, vertex
    while True:
        key = ((k - P) % T, cur)
        if key in seen:
            i = seen[key]
            return tuple(edges[:i]), tuple(edges[i:])
        seen[key] = len(edges)
        m = seq.matrix(k)
        b = next(b for b in m.cols if m.entry(cur, b))
        edges.append((k, cur, b, 0))
        k += 1
        cur = b


def test_successor_matches_rank_plus_one_random():
    rng = random.Random(19)
    for _ in range(10):
        seq = random_reduced_sequence(rng, max_dim=3)
        d = BratteliDiagram(seq)
        depth = 4
        classes = {}
        for w in enumerate_paths(seq, depth):
            classes.setdefault(w[-1][2], []).append(w)
        for words in classes.values():
            size = len(words)
            for w in words:
                r = anti_lex_rank(d, w)
                if r == size - 1:
                    continue  # class-maximal word
                pad, cycle = _any_tail(d, w[-1][2], depth)
                p = LazyPath(d, list(w) + list(pad), tail_cycle=cycle)
                s = successor(p)
                sw = s.word(depth)
                assert sw[-1][2] == w[-1][2]
                assert anti_lex_rank(d, sw) == r + 1
                # predecessor inverts the step
                back = predecessor(s)
                assert back.word(depth) == tuple(w)


def test_dyadic_orbit_counts_in_binary():
    d = dyadic()
    p = extremal_path(d, [], "min", "0")
    for n in range(8):
        bits = tuple((n >> k) & 1 for k in range(3))
        assert tuple(e[3] for e in p.word(3)) == bits
        p = successor(p)


def test_successor_none_on_all_max():
    d = chacon()
    top = LazyPath(d, [], tail_cycle=[(0, "1", "1", 2)])
    assert successor(top) is None
    fixed = LazyPath(d, [], tail_cycle=[(0, "0", "0", 0)])
    assert successor(fixed) is None  # the isolated fixed path


def test_extremal_paths_chacon():
    d = chacon()
    mins, maxs = extremal_paths(d, "min"), extremal_paths(d, "max")
    min_pats = sorted(p.tail_cycle[0][1:] for p in mins)
    max_pats = sorted(p.tail_cycle[0][1:] for p in maxs)
    assert min_pats == [("0", "0", 0), ("1", "1", 0)]
    assert max_pats == [("0", "0", 0), ("1", "1", 2)]


def test_extremal_paths_bounded_by_alphabet():
    rng = random.Random(37)
    for _ in range(15):
        seq = random_reduced_sequence(rng, max_dim=3)
        d = BratteliDiagram(seq)
        mins, maxs = extremal_paths(d, "min"), extremal_paths(d, "max")
        bound = seq.liminf_alphabet_size()
        assert 1 <= len(mins) <= bound
        assert 1 <= len(maxs) <= bound
        for p in mins + maxs:
            # the tails really are extremal edge by edge
            for k in range(p.tail_start, p.tail_start + len(p.tail_cycle)):
                e = p.edge(k)
                if p in mins:
                    assert d.order.is_min(e)
                else:
                    assert d.order.is_max(e)


def test_extremal_paths_match_the_return_map_on_reduced_diagrams():
    # the lasso from each level-P vertex finds exactly the paths of the
    # one-period return map's cycles, in the same order
    rng = random.Random(2024)
    compared = 0
    for _ in range(1000):
        seq = random_reduced_sequence(rng, max_period=3, max_prefix=3)
        d = _shuffled_diagram(rng, seq)
        for kind in ("min", "max"):
            want = extremal_paths_reference(d, kind)
            assert [_path_key(p) for p in extremal_paths(d, kind)] == \
                [_path_key(p) for p in want]
            compared += len(want)
    assert compared >= 1000


def test_extremal_paths_on_unreduced_diagrams():
    # where the return map is defined the paths are its paths; where it is
    # not (NotReduced), the paths are still all-extremal and distinct at
    # every cycle level, so at most the liminf alphabet size many
    rng = random.Random(99)
    compared = bounded = 0
    for _ in range(1000):
        seq = random_ep_sequence(rng, max_period=3, max_prefix=3)
        d = _shuffled_diagram(rng, seq)
        for kind in ("min", "max"):
            got = extremal_paths(d, kind)
            try:
                want = extremal_paths_reference(d, kind)
            except NotReduced:
                extremal = d.order.is_min if kind == "min" else d.order.is_max
                for p in got:
                    assert p.tail_start == seq.prefix_len
                    assert all(extremal(e) for e in p.prefix_edges
                               + p.tail_cycle)
                assert len(got) <= seq.liminf_alphabet_size()
                bounded += 1
                continue
            assert [_path_key(p) for p in got] == \
                [_path_key(p) for p in want]
            compared += len(want)
    assert compared >= 200 and bounded >= 200


# ---------------------------------------------------------------------------
# embeddings and return times


def test_extremal_tail_after_a_long_prefix():
    one = GenMatrix.from_lists(("0",), ("0",), [[1]])
    two = GenMatrix.from_lists(("0",), ("0",), [[2]])
    d = BratteliDiagram(EventuallyPeriodic([one] * 3000, [two]))
    for kind, index in (("min", 0), ("max", 1)):
        p = extremal_path(d, [], kind, "0")
        assert p.tail_start == 3000
        assert p.tail_cycle == ((3000, "0", "0", index),)


def test_extremal_kind_is_min_or_max():
    d = chacon()
    message = "extremal tails take kind 'min' or 'max', got 'top'"
    for make in (lambda: extremal_path(d, [], "top", "0"),
                 lambda: extremal_paths(d, "top")):
        with pytest.raises(ShapeMismatch) as info:
            make()
        assert str(info.value) == message


@pytest.mark.parametrize("make, error, message", [
    (lambda: (BratteliDiagram(Truncated(
        [GenMatrix.from_lists(("0",), ("0",), [[2]])] * 3)),
              [], [(0, "0", "0", 0)]),
     UndeterminedTail, "periodic tails need an eventually periodic diagram"),
    (lambda: (gallery.seven_matrix_example(), [], [(0, "0", "0", 0)]),
     ShapeMismatch, "tail must start in the periodic region"),
    # seven-matrix has prefix 5 and period 2: a one-edge tail from level 5
    (lambda: (gallery.seven_matrix_example(),
              [(k, "0", "0", 0) for k in range(5)], [(5, "0", "0", 0)]),
     ShapeMismatch, "tail period must be a multiple of the diagram period"),
    (lambda: (gallery.EXAMPLES["golden-mean"](), [(0, "0", "1", 0)],
              [(1, "0", "0", 0)]),
     MalformedWord, "prefix does not compose with the tail"),
    (lambda: (gallery.EXAMPLES["golden-mean"](), [], [(0, "0", "1", 0)]),
     MalformedWord, "tail cycle does not close"),
])
def test_constructor_rejects_a_bad_tail(make, error, message):
    # paths the step engine derives skip these checks (`_rebuild`), so the
    # public constructor is the one boundary that makes them
    diagram, prefix, tail_cycle = make()
    with pytest.raises(error) as info:
        LazyPath(diagram, prefix, tail_cycle)
    assert type(info.value) is error and str(info.value) == message


def test_order_that_is_not_a_permutation_is_rejected():
    seq = gallery.EXAMPLES["golden-mean"]().seq
    with pytest.raises(MalformedWord) as info:
        StableOrder(seq, [{"0": [("0", 0)]}])
    assert str(info.value) == ("order for target '0' is not a permutation "
                               "of its incoming edges")


def test_paths_share_one_tuple_per_edge():
    d = chacon()
    word = enumerate_paths(d.seq, 4)[5]
    tail = [(4, "1", "1", 0)]
    p, q = (LazyPath(d, [list(e) for e in word], [list(e) for e in tail])
            for _ in range(2))
    for x, y in zip(p.prefix_edges + p.tail_cycle,
                    q.prefix_edges + q.tail_cycle):
        assert x is y
    # an extremal tail's pad and cycle are the index's edges too
    one = GenMatrix.from_lists(("0",), ("0",), [[1]])
    two = GenMatrix.from_lists(("0",), ("0",), [[2]])
    d = BratteliDiagram(EventuallyPeriodic([one] * 3, [two]))
    p, q = (extremal_path(d, [], "min", "0") for _ in range(2))
    explicit = LazyPath(d, [list(e) for e in p.prefix_edges],
                        [list(e) for e in p.tail_cycle])
    assert len(p.prefix_edges) == 3
    for r in (q, explicit):
        for x, y in zip(p.prefix_edges + p.tail_cycle,
                        r.prefix_edges + r.tail_cycle):
            assert x is y


def _continuation_by_recursion(d, vertex, level, kind):
    """Reference: the recursive lasso search, or None when it fails."""
    seq = d.seq
    P, T = seq.prefix_len, seq.period
    sel = d.order.min_edge_into if kind == "min" else d.order.max_edge_into
    edges, seen = [], {}

    def dfs(k, v):
        if k >= P:
            st = ((k - P) % T, v)
            if st in seen:
                return seen[st]
            seen[st] = len(edges)
        mat = seq.matrix(k)
        for e in sorted((sel(k, b) for b in mat.cols if mat.entry(v, b)),
                        key=lambda e: (e[2], e[3])):
            if e[1] == v:
                edges.append(e)
                res = dfs(k + 1, e[2])
                if res is not None:
                    return res
                edges.pop()
        if k >= P:
            del seen[((k - P) % T, v)]
        return None

    idx = dfs(level, vertex)
    return None if idx is None else (tuple(edges[:idx]), tuple(edges[idx:]))


def _shuffled_diagram(rng, seq):
    """seq as a diagram whose edges into each symbol are in random order."""
    return BratteliDiagram(seq, StableOrder(
        seq, _shuffled_orders(rng, seq.stored)))


def _path_key(p):
    return p.prefix_edges, p.tail_cycle


def test_extremal_continuation_matches_recursive_search():
    rng = random.Random(7)
    found = 0
    for _ in range(80):
        seq = random_ep_sequence(rng, max_period=3, max_prefix=3)
        d = _shuffled_diagram(rng, seq)
        for kind in ("min", "max"):
            for level in range(seq.prefix_len + 2):
                for v in seq.alphabet(level):
                    want = _continuation_by_recursion(d, v, level, kind)
                    try:
                        got = _extremal_continuation(d, v, level, kind)
                    except MalformedWord:
                        got = None
                    assert got == want
                    found += got is not None
    assert found >= 100


def test_embedding_rejects_non_nested():
    amb = BratteliDiagram(constant([[2]], ["0"]))
    with pytest.raises(NotInBase):
        SubdiagramEmbedding(amb, constant([[3]], ["0"]))


def test_return_time_identity_embedding_is_one():
    d = dyadic()
    emb = SubdiagramEmbedding(d, d.seq)
    assert return_time(emb, [(0, "0", "0", 0)]) == 1


def test_cyclic_return_times_triadic():
    emb = ics("triadic")
    # base edges are the ambient indices 0 and 2; 0 -> 2 takes two steps,
    # 2 wraps around to 0 in one
    assert cyclic_return_time(emb, ((0, "0", "0", 0),)) == 2
    assert cyclic_return_time(emb, ((0, "0", "0", 2),)) == 1


def test_return_time_infinite_on_base_maximal_path():
    emb = ics("triadic")
    p = LazyPath(emb.ambient, [], tail_cycle=[(0, "0", "0", 2)])
    assert return_time(emb, p) == math.inf


def test_return_time_undetermined_on_short_maximal_word():
    emb = ics("triadic")
    with pytest.raises(UndeterminedTail):
        return_time(emb, [(0, "0", "0", 2)])


def _pair_embedding():
    # [[1,1],[1,1]] <= [[2,1],[1,2]]: base edges 0>0.0, 0>1.0, 1>0.0, 1>1.0
    amb = BratteliDiagram(constant([[2, 1], [1, 2]]))
    return SubdiagramEmbedding(amb, constant([[1, 1], [1, 1]]))


def test_return_times_reject_words_that_do_not_compose():
    emb = _pair_embedding()
    word = ((0, "0", "0", 0), (1, "1", "0", 0))
    for f in (return_time, cyclic_return_time):
        with pytest.raises(MalformedWord, match="do not compose"):
            f(emb, word)


def test_return_time_rejects_a_non_base_edge_past_the_change_level():
    # level 0 is the change level; the tail edge 0>0.1 is not a base edge
    emb = _pair_embedding()
    p = LazyPath(emb.ambient, [(0, "0", "0", 0)],
                 tail_cycle=[(1, "0", "0", 1)])
    with pytest.raises(NotInBase, match=r"\(1, '0', '0', 1\)"):
        return_time(emb, p)


def test_return_times_reject_the_empty_word():
    for f in (return_time, cyclic_return_time):
        with pytest.raises(ShapeMismatch, match="nonempty"):
            f(ics("triadic"), [])


def test_return_times_reject_malformed_edges():
    emb = ics("triadic")
    for word in ([(0, "0")], [5], [(0, "0", "0", 0), 5],
                 [("0", "0", "0", 0)], [(0, "0", "0", "0")]):
        for f in (return_time, cyclic_return_time):
            with pytest.raises(MalformedWord, match="not .level, source"):
                f(emb, word)
        with pytest.raises(MalformedWord, match="not .level, source"):
            LazyPath(emb.ambient, word)


def test_cyclic_return_time_rejects_a_lazy_path():
    emb = ics("triadic")
    path = extremal_path(emb.ambient, [(0, "0", "0", 0)], "max")
    assert return_time(emb, path) == 2
    with pytest.raises(MalformedWord, match="edge word, not a LazyPath"):
        cyclic_return_time(emb, path)


def test_cyclic_return_time_reads_list_edges_as_tuples():
    """The wrap from a base-maximal word ranks the word among its
    ambient class; edges given as lists must rank like tuples."""
    emb = ics("triadic")
    for word in ([(0, "0", "0", 2)], [(0, "0", "0", 2), (1, "0", "0", 2)],
                 [(0, "0", "0", 0), (1, "0", "0", 2)]):
        assert cyclic_return_time(emb, [list(e) for e in word]) == \
            cyclic_return_time(emb, word)


def _base_measure(seq):
    cls = classify_measures(seq)
    (e,) = cls.measures
    return CentralMeasure(cls.seq, e.ray)


def test_kac_sums_triadic_growth():
    emb = ics("triadic")
    mu = _base_measure(emb.base_seq)
    prev = Fraction(0)
    for d in range(1, 7):
        s = kac_partial_sum(emb, mu, d)
        assert s == Fraction(3, 2) ** d
        assert s >= prev
        prev = s
        if d <= 5:
            assert s == kac_partial_sum_brute(emb, mu, d)
    assert kac_partial_sum(emb, mu, 18) > 10 ** 3


def test_kac_sums_finite_pair_stabilize():
    amb = from_int_matrices([[[3]], [[2]]], cycle_from=1,
                            labels=[("0",), ("0",), ("0",)])
    emb = SubdiagramEmbedding(BratteliDiagram(amb), constant([[2]], ["0"]))
    mu = _base_measure(emb.base_seq)
    for d in range(1, 11):
        assert kac_partial_sum(emb, mu, d) == Fraction(3, 2)
    assert kac_partial_sum_brute(emb, mu, 4) == Fraction(3, 2)


# ---------------------------------------------------------------------------
# orbit simulation


def test_simulate_dyadic_uniform():
    d = dyadic()
    p = extremal_path(d, [], "min", "0")
    out = simulate_orbit(p, 3, depth=2)
    assert out["steps_performed"] == 3
    assert len(out["visits"]) == 4
    assert all(f == Fraction(1, 4) for f in out["frequencies"].values())


@pytest.mark.parametrize("steps, depth", [(-3, 2), (3, -2), (-1, -1)])
def test_simulate_rejects_negative_steps_and_depth(steps, depth):
    p = extremal_path(dyadic(), [], "min", "0")
    with pytest.raises(ShapeMismatch):
        simulate_orbit(p, steps, depth=depth)


def test_simulate_stops_at_top():
    d = chacon()
    top = LazyPath(d, [], tail_cycle=[(0, "1", "1", 2)])
    out = simulate_orbit(top, 10, depth=1)
    assert out["steps_performed"] == 0
    assert sum(out["visits"].values()) == out["steps_performed"] + 1


def test_simulate_chacon_frequencies_track_measure():
    d = chacon()
    p = extremal_path(d, [], "min", "1")
    out = simulate_orbit(p, 2000, depth=1)
    cls = classify_measures(d.seq)
    ray = [e.ray for e in cls.measures if not e.atomic][0]
    mu = CentralMeasure(cls.seq, ray)
    for w, f in out["frequencies"].items():
        assert abs(f - mu.cylinder_mass(list(w))) < Fraction(1, 50)


def test_simulate_scans_once_per_step(monkeypatch):
    """simulate_orbit takes the change level from the step engine: one
    _advance scan per attempted step, and the same change levels as a
    separate scan of each visited path."""
    cases = [(extremal_path(chacon(), [], "min", "1"), 200),
             (extremal_path(dyadic(), [], "min", "0"), 50),
             (LazyPath(chacon(), [], tail_cycle=[(0, "1", "1", 2)]), 10)]
    want = []
    for p, steps in cases:
        levels = {}
        for _ in range(steps):
            nxt = successor(p)
            if nxt is None:
                break
            m = first_special_reference(p, "succ")
            levels[m] = levels.get(m, 0) + 1
            p = nxt
        want.append(levels)
    calls = []
    original = vershik._advance

    def counting(order, start, edges, cycle, which):
        calls.append(which)
        return original(order, start, edges, cycle, which)

    monkeypatch.setattr(vershik, "_advance", counting)
    for (p, steps), levels in zip(cases, want):
        calls.clear()
        out = simulate_orbit(p, steps, depth=2)
        attempted = out["steps_performed"] + (out["steps_performed"] < steps)
        assert calls == ["succ"] * attempted
        assert out["change_levels"] == levels


# ---------------------------------------------------------------------------
# derived paths: the successor map builds paths without the public
# constructor's checks, so every derived path is re-checked here


def _shuffled_orders(rng, mats):
    orders = []
    for m in mats:
        level = {}
        for b in m.cols:
            into = [(a, i) for a in m.rows for i in range(m.entry(a, b))]
            rng.shuffle(into)
            level[b] = into
        orders.append(level)
    return orders


def _random_word(rng, d, depth):
    v = rng.choice(sorted(d.seq.alphabet(0)))
    word = []
    for k in range(depth):
        m = d.seq.matrix(k)
        b, i = rng.choice([(b, i) for b in m.cols
                           for i in range(m.entry(v, b))])
        word.append((k, v, b, i))
        v = b
    return word


def _periodic_tail(d, vertex, level):
    """(pad, cycle): first available edges from `vertex` at `level` until
    a (phase, vertex) state of the periodic region repeats."""
    seq = d.seq
    P, T = seq.prefix_len, seq.period
    seen, edges, k = {}, [], level
    while True:
        if k >= P:
            state = ((k - P) % T, vertex)
            if state in seen:
                i = seen[state]
                return edges[:i], edges[i:]
            seen[state] = len(edges)
        m = seq.matrix(k)
        b = next(b for b in m.cols if m.entry(vertex, b))
        edges.append((k, vertex, b, 0))
        k, vertex = k + 1, b


def _start_paths(rng, d):
    """Paths with and without a periodic tail; the maximal-prefix and
    extremal-tail ones change inside the tail after a few steps."""
    depth = rng.randint(1, 4)
    w = _random_word(rng, d, depth)
    v = w[-1][2]
    top = list(_word_into(d.order.max_edge_into, v, depth))
    paths = [LazyPath(d, w)]
    for word in (w, top):
        pad, cycle = _periodic_tail(d, v, depth)
        paths.append(LazyPath(d, word + pad, tail_cycle=cycle))
    pad, cycle = _periodic_tail(d, w[0][1], 0)
    paths.append(LazyPath(d, pad, tail_cycle=cycle))
    for kind in ("min", "max"):
        try:
            paths.append(extremal_path(d, w, kind))
        except MalformedWord:
            pass  # no all-extremal continuation from here
    return paths


def _ordered_diagrams(rng):
    """The gallery diagrams, then 24 seeded random reduced diagrams with
    shuffled orders."""
    diagrams = [d for d in (f() for f in gallery.EXAMPLES.values())
                if isinstance(d, BratteliDiagram)]
    for _ in range(24):
        diagrams.append(_shuffled_diagram(
            rng, random_reduced_sequence(rng, max_dim=3)))
    return diagrams


def _levels(*paths):
    """A level past which every path is periodic for two periods."""
    tails = [len(p.tail_cycle) for p in paths if p.tail_cycle]
    if not tails:
        return min(p.tail_start for p in paths)
    return max(p.tail_start for p in paths) + 2 * math.lcm(*tails)


def _check_derived(src, m, got):
    d = got.diagram
    check_word(d.seq, got.prefix_edges, got.start)
    if got.tail_cycle is not None:
        check_word(d.seq, got.tail_cycle, got.tail_start)
    again = LazyPath(d, got.prefix_edges, got.tail_cycle, got.start)
    assert (again.start, again.prefix_edges, again.tail_cycle) == \
        (got.start, got.prefix_edges, got.tail_cycle)
    n = _levels(src, got)
    assert got.word(n)[m + 1:] == src.word(n)[m + 1:]


def _check_step(p, s):
    """s = successor(p): the rank rises by 1 inside an endpoint class, and
    predecessor undoes the step."""
    d = p.diagram
    m = first_special_reference(p, "succ")
    for n in {m + 1, max(m + 1, _levels(p, s))}:
        pw, sw = p.word(n), s.word(n)
        assert sw[-1][2] == pw[-1][2]
        assert anti_lex_rank(d, sw) == anti_lex_rank(d, pw) + 1
    n = _levels(p, s)
    assert predecessor(s).word(n) == p.word(n)


def test_derived_paths_pass_the_public_checks(monkeypatch):
    """Every path _rebuild makes during successor, predecessor and
    simulate_orbit walks passes check_word, survives the public
    constructor unchanged and agrees with its source beyond the change
    level; each successor step raises the rank by 1 in its endpoint class
    and predecessor undoes it.  Gallery diagrams plus seeded random ones
    with shuffled orders; paths with and without a periodic tail.  There
    is one rebuild per successor or predecessor step and one per walk."""
    rebuilt = []
    stepped = []  # (source, change level, path) per successor / predecessor
    moved = []  # (source, highest change level, final) per walk that moved
    in_tail = carried = 0
    original_rebuild = vershik._rebuild
    original_step, original_advance = vershik._step, vershik._advance

    def recording(diagram, start, edges, cycle):
        out = original_rebuild(diagram, start, edges, cycle)
        rebuilt.append(out)
        return out

    def stepping(path, which):
        m, out = original_step(path, which)
        if out is not None:
            stepped.append((path, m, out))
        return m, out

    def advancing(order, start, edges, cycle, which):
        nonlocal in_tail, carried
        tail_start = start + len(edges)
        m, cycle = original_advance(order, start, edges, cycle, which)
        if m is not None and m >= tail_start:
            in_tail += 1
            carried += len(edges) > m + 1
        return m, cycle

    monkeypatch.setattr(vershik, "_rebuild", recording)
    monkeypatch.setattr(vershik, "_step", stepping)
    monkeypatch.setattr(vershik, "_advance", advancing)
    rng = random.Random(4242)
    steps, walks, walk = 0, 0, 60
    for d in _ordered_diagrams(rng):
        for p in _start_paths(rng, d):
            cur = p
            for _ in range(walk):
                nxt = successor(cur)
                if nxt is None:
                    break
                _check_step(cur, nxt)
                cur, steps = nxt, steps + 1
            back = predecessor(p)
            if back is not None:
                n = _levels(p, back)
                assert successor(back).word(n) == p.word(n)
            before = len(rebuilt)
            out = simulate_orbit(p, walk, depth=1)
            walks += 1
            final = out["final"]
            assert rebuilt[before:] == [final]
            assert (final.prefix_edges, final.tail_cycle) \
                == (cur.prefix_edges, cur.tail_cycle)
            if out["change_levels"]:
                moved.append((p, max(out["change_levels"]), final))
    assert len(rebuilt) == len(stepped) + walks
    for src, m, got in stepped + moved:
        _check_derived(src, m, got)
    # the carry of _advance, ending on a tail boundary and past one, is
    # exercised by the steps of every kind, walks included
    assert steps >= 3000 and walks >= 100
    assert in_tail >= 400 and carried >= 100


def _fields(step):
    """A step result (m, path) as plain fields."""
    m, p = step
    return m, p and (p.diagram, p.start, p.prefix_edges, p.tail_cycle)


def test_step_matches_the_parent_engines():
    """vershik._step gives the change level and the path of the parent
    successor and predecessor engines (`successor_at_reference`,
    `predecessor_reference` in conftest), field for field, on walks
    forward and back from the `_start_paths` of the gallery diagrams and
    of seeded random diagrams with shuffled orders: paths with and without
    a periodic tail, steps that change inside the tail and steps with a
    carry."""
    rng = random.Random(3131)
    counts = {"succ": 0, "pred": 0}
    in_tail = carried = ends = 0
    for d in _ordered_diagrams(rng):
        for p in _start_paths(rng, d):
            for which, reference, walk in (
                    ("succ", successor_at_reference, 80),
                    ("pred", predecessor_reference, 30)):
                cur = p
                for _ in range(walk):
                    got = vershik._step(cur, which)
                    assert _fields(got) == _fields(reference(cur))
                    m, nxt = got
                    if nxt is None:
                        ends += 1
                        break
                    counts[which] += 1
                    if cur.tail_cycle is not None and m >= cur.tail_start:
                        in_tail += 1
                        carried += len(nxt.prefix_edges) > m + 1
                    cur = nxt
    assert counts["succ"] >= 3000 and counts["pred"] >= 1000
    assert in_tail >= 250 and carried >= 75 and ends >= 200


def _walk_fields(out):
    """A simulate_orbit result as plain fields."""
    final = out["final"]
    return (out["visits"], out["frequencies"], out["change_levels"],
            out["steps_performed"], final.diagram, final.start,
            final.prefix_edges, final.tail_cycle)


def test_simulate_orbit_matches_the_parent_walk():
    """simulate_orbit gives the statistics and the final path of the
    parent walk (`simulate_orbit_reference` in conftest), field for field,
    from the `_start_paths` of the gallery diagrams and of seeded random
    diagrams with shuffled orders, and from the same paths cut to start
    at a later level, for several step counts and depths: walks that carry
    into the tail, walks that end at the maximal path, and visit words
    that reach past the explicit edges."""
    rng = random.Random(5353)
    seen = dict.fromkeys(("carried", "ended", "late_start", "past_edges"), 0)
    walks = 0
    for d in _ordered_diagrams(rng):
        for p in _start_paths(rng, d):
            paths = [p]
            if len(p.prefix_edges) > 1:
                s = rng.randrange(1, len(p.prefix_edges))
                paths.append(LazyPath(d, p.prefix_edges[s:], p.tail_cycle,
                                      start=s))
            for q in paths:
                top = q.tail_start
                if q.tail_cycle is not None:
                    top += len(q.tail_cycle) + 2
                for steps in (0, 1, 7, 60):
                    depth = rng.randint(0, top)
                    want = simulate_orbit_reference(q, steps, depth)
                    assert _walk_fields(simulate_orbit(q, steps, depth)) \
                        == _walk_fields(want)
                    final = want["final"]
                    walks += 1
                    seen["carried"] += final.tail_start > q.tail_start
                    seen["ended"] += want["steps_performed"] < steps
                    seen["late_start"] += q.start > 0 and steps > 0
                    seen["past_edges"] += depth > final.tail_start
    assert walks >= 1000
    assert seen["carried"] >= 150 and seen["ended"] >= 300
    assert seen["late_start"] >= 300 and seen["past_edges"] >= 300


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 12))
def test_step_properties_on_random_ordered_diagrams(seed, n):
    """On a small random reduced diagram with a shuffled order, from one of
    its `_start_paths` (both drawn from `seed`): predecessor undoes
    successor on the changed levels, the successor's rank is one more in
    the same endpoint class, and an n-step walk ends where n successor
    calls do."""
    rng = random.Random(seed)
    d = _shuffled_diagram(rng, random_reduced_sequence(
        rng, max_dim=3, max_period=2))
    p = rng.choice(_start_paths(rng, d))
    s = successor(p)
    if s is not None:
        n_changed = first_special_reference(p, "succ") + 1
        pw, sw = p.word(n_changed), s.word(n_changed)
        assert predecessor(s).word(n_changed) == pw
        assert sw[-1][2] == pw[-1][2]
        assert anti_lex_rank(d, sw) == anti_lex_rank(d, pw) + 1
    cur = p
    for _ in range(n):
        nxt = successor(cur)
        if nxt is None:
            break
        cur = nxt
    final = simulate_orbit(p, n, depth=0)["final"]
    assert (final.start, final.prefix_edges, final.tail_cycle) \
        == (cur.start, cur.prefix_edges, cur.tail_cycle)

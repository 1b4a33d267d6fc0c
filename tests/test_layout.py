"""The level layout of matrix sequences: `seq.matrix(k)`, the stable
order's level orders and incoming edges and a subdiagram embedding's
base edges all read level k from the same stored position, and all fail
with the same error outside the sequence (IndexError below level 0,
HorizonExceeded at or past a truncated horizon)."""

import json
import random

import pytest

from adic.errors import (
    HorizonExceeded, NotReduced, ShapeMismatch, UndeterminedTail)
from adic.matrixseq import (
    EventuallyPeriodic,
    GenMatrix,
    Truncated,
    constant,
    from_int_matrices,
    is_reduced,
    submatrix_leq,
    _compare_horizon,
)
from adic.measures import canonical_cover
from adic.diagram import BratteliDiagram, StableOrder, enumerate_paths
from adic.gallery import ics
from adic.vershik import (
    LazyPath,
    SubdiagramEmbedding,
    cyclic_return_time,
    kac_partial_sum,
    return_time,
    successor,
)

from conftest import random_ep_sequence, random_nested_pair


def _shuffled_orders(rng, mats):
    """One custom level order per matrix: each target's incoming edges in
    a random order."""
    orders = []
    for m in mats:
        level = {}
        for b in m.cols:
            into = [(a, i) for a in m.rows for i in range(m.entry(a, b))]
            rng.shuffle(into)
            level[b] = into
        orders.append(level)
    return orders


def _ep_with(rng, P, T):
    while True:
        seq = random_ep_sequence(rng, max_prefix=3, max_period=3)
        if (seq.prefix_len, seq.period) == (P, T):
            return seq


def _outcome(f, *args):
    try:
        return f(*args)
    except (IndexError, HorizonExceeded) as exc:
        return type(exc)


def _check_layout(seq, order, old_matrix, old_orders, levels, error_at):
    """Every level in `levels` either matches the prefix/cycle/terms
    formulas `old_matrix(k)` and `old_orders(k)`, or raises `error_at(k)`
    from all three lookups."""
    for k in levels:
        error = error_at(k)
        if error is not None:
            assert _outcome(seq.matrix, k) is error
            assert _outcome(order.level_orders, k) is error
            assert _outcome(order.incoming, k, "0") is error
            continue
        m = old_matrix(k)
        assert seq.matrix(k) is m
        assert order.level_orders(k) == old_orders(k)
        for b in m.cols:
            assert order.incoming(k, b) == [(k, a, b, i)
                                            for (a, i) in old_orders(k)[b]]


def _json_orders(orders):
    return [{b: [[a, i] for (a, i) in pairs] for b, pairs in lo.items()}
            for lo in orders]


def _round_trip(diagram):
    return BratteliDiagram.from_json(json.loads(json.dumps(diagram.to_json())))


def test_eventually_periodic_layout():
    rng = random.Random(613)
    for P in range(4):
        for T in range(1, 4):
            for _ in range(3):
                seq = _ep_with(rng, P, T)
                pre = _shuffled_orders(rng, seq.prefix)
                cyc = _shuffled_orders(rng, seq.cycle)
                order = StableOrder(seq, pre, cyc)

                def old_matrix(k):
                    if k < P:
                        return seq.prefix[k]
                    return seq.cycle[(k - P) % T]

                def old_orders(k):
                    if k < P:
                        return pre[k]
                    return cyc[(k - P) % T]

                _check_layout(seq, order, old_matrix, old_orders,
                              range(-2, P + 3 * T + 1),
                              lambda k: IndexError if k < 0 else None)
                d = BratteliDiagram(seq, order)
                want = {"prefix": _json_orders(pre),
                        "cycle": _json_orders(cyc)}
                assert d.order.to_json() == want
                assert _round_trip(d).order.to_json() == want


def test_truncated_layout():
    rng = random.Random(617)
    for h in range(1, 6):
        for _ in range(3):
            base = _ep_with(rng, rng.randrange(4), rng.randrange(1, 4))
            seq = Truncated([base.matrix(k) for k in range(h)])
            terms = _shuffled_orders(rng, seq.terms)
            order = StableOrder(seq, term_orders=terms)

            def error_at(k):
                if k < 0:
                    return IndexError
                return HorizonExceeded if k >= h else None

            _check_layout(seq, order, lambda k: seq.terms[k],
                          lambda k: terms[k], range(-2, h + 2), error_at)
            d = BratteliDiagram(seq, order)
            want = {"terms": _json_orders(terms)}
            assert d.order.to_json() == want
            assert _round_trip(d).order.to_json() == want


def test_default_orders_round_trip():
    rng = random.Random(619)
    for P in range(4):
        for T in range(1, 4):
            d = BratteliDiagram(_ep_with(rng, P, T))
            back = _round_trip(d)
            assert back.to_json() == d.to_json()
            assert [len(back.order.to_json()[part])
                    for part in ("prefix", "cycle")] == [P, T]


def test_order_list_of_the_wrong_length_is_rejected():
    rng = random.Random(631)
    seq = _ep_with(rng, 2, 2)
    with pytest.raises(ShapeMismatch):
        StableOrder(seq, _shuffled_orders(rng, seq.prefix[:1]))
    with pytest.raises(ShapeMismatch):
        StableOrder(seq, cycle_orders=_shuffled_orders(rng, seq.stored))


# ---------------------------------------------------------------------------
# subdiagram embeddings


def _old_base_indices(base, index_map, k, a, b):
    """The per-call key lookup the embedding used before its tables."""
    m = base.matrix(k)
    count = m.entry(a, b) if a in m.rows and b in m.cols else 0
    key = None
    if base.is_eventually_periodic and k >= base.prefix_len:
        key = ("cycle", (k - base.prefix_len) % base.period, a, b)
    if key not in index_map:
        key = (k, a, b)
    if key in index_map:
        return list(index_map[key])
    return list(range(count))


def _square(rng, d, low):
    syms = [str(j) for j in range(d)]
    return GenMatrix(syms, syms, {(a, b): rng.randrange(low, 4)
                                  for a in syms for b in syms})


def _nested(rng, d, amb_layout, base_layout):
    """An ambient over d symbols per level and a base below it, each with
    its own layout: (P, T) for eventually periodic, (h, None) for
    truncated.  Each base matrix is at most the entrywise minimum of the
    ambient matrices at the joint levels that read it, minus a random
    amount."""
    Pa, Ta = amb_layout
    amb_mats = [_square(rng, d, 1) for _ in range(Pa + Ta)]
    amb = EventuallyPeriodic(amb_mats[:Pa], amb_mats[Pa:])
    Pb, Tb = base_layout
    if Tb is None:
        shape = Truncated([amb_mats[0]] * Pb)
    else:
        shape = EventuallyPeriodic([amb_mats[0]] * Pb, [amb_mats[0]] * Tb)
    low = [dict.fromkeys(m.entries, 3) for m in shape.stored]
    for k in range(max(Pa, Pb) + Ta * (Tb or 1) * 2):
        if shape.horizon is not None and k >= shape.horizon:
            break
        floor = low[shape.index(k)]
        for pair in floor:
            floor[pair] = min(floor[pair], amb.matrix(k).entry(*pair))
    mats = [GenMatrix(m.rows, m.cols, {pair: rng.randrange(v + 1)
                                       for pair, v in floor.items()})
            for m, floor in zip(shape.stored, low)]
    if Tb is None:
        base = Truncated(mats)
    else:
        base = EventuallyPeriodic(mats[:Pb], mats[Pb:])
    return amb, base, low


def _index_map(rng, base, low):
    """Prefix (or truncated) keys and cycle keys for about half the pairs:
    distinct ambient indices below the joint minimum, in random order."""
    index_map = {}
    P = base.prefix_len if base.is_eventually_periodic else base.horizon
    for i, (m, floor) in enumerate(zip(base.stored, low)):
        for (a, b), v in m.entries.items():
            if rng.random() < 0.5:
                key = (i, a, b) if i < P else ("cycle", i - P, a, b)
                index_map[key] = rng.sample(range(floor[(a, b)]), v)
    return index_map


def _embedding(rng, amb, base, index_map):
    """The embedding of `base` in `amb` under shuffled ambient orders."""
    order = StableOrder(amb, _shuffled_orders(rng, amb.prefix),
                        _shuffled_orders(rng, amb.cycle))
    return SubdiagramEmbedding(BratteliDiagram(amb, order), base, index_map)


def _check_embedding(amb, base, index_map, levels, rng):
    emb = _embedding(rng, amb, base, index_map)
    order = emb.ambient.order
    base_order = emb.base.order
    for k in levels:
        if base.horizon is not None and k >= base.horizon:
            with pytest.raises(HorizonExceeded):
                emb.base_indices(k, "0", "0")
            continue
        m = amb.matrix(k)
        for b in m.cols:
            want = [e for e in order.incoming(k, b)
                    if e[3] in _old_base_indices(base, index_map, k, e[1], b)]
            assert list(emb.to_ambient(base_order.incoming(k, b))) == want
            for a in m.rows:
                old = _old_base_indices(base, index_map, k, a, b)
                assert emb.base_indices(k, a, b) == old
                for i in range(m.entry(a, b)):
                    assert emb.is_base_edge((k, a, b, i)) == (i in old)
            for j, e in enumerate(want):
                nxt = want[j + 1] if j + 1 < len(want) else None
                (f,) = emb.to_base([e])
                got = base_order.next_edge(f)
                assert (got and emb.to_ambient([got])[0]) == nxt
                assert base_order.is_max(f) == (nxt is None)


def test_embedding_layout_matches_the_key_lookup():
    rng = random.Random(641)
    for P in range(4):
        for T in range(1, 4):
            for _ in range(3):
                amb_layout = (rng.randrange(4), rng.randrange(1, 4))
                amb, base, low = _nested(rng, rng.randrange(1, 3),
                                         amb_layout, (P, T))
                for index_map in ({}, _index_map(rng, base, low)):
                    _check_embedding(amb, base, index_map,
                                     range(P + 3 * T + 1), rng)


def test_truncated_embedding_layout_matches_the_key_lookup():
    rng = random.Random(643)
    for h in range(1, 6):
        for _ in range(3):
            amb_layout = (rng.randrange(4), rng.randrange(1, 4))
            amb, base, low = _nested(rng, rng.randrange(1, 3),
                                     amb_layout, (h, None))
            for index_map in ({}, _index_map(rng, base, low)):
                _check_embedding(amb, base, index_map, range(h + 2), rng)


def _random_base_path(rng, emb, start):
    """A random ambient LazyPath from level `start` whose edges are all base
    edges: random base edges up to a tail start in the pair's joint layout,
    then whole joint periods until the vertex at a period boundary repeats.
    A truncated base gives a finite path up to its horizon.  The base must
    be reduced, so that every vertex has a base edge out of it."""
    seq = emb.base_seq
    P, L = _compare_horizon(seq, emb.ambient.seq)
    ts = max(start, P) + L * rng.randrange(2)
    v = rng.choice(seq.alphabet(start))
    edges, seen, k = [], {}, start
    while k != seq.horizon:
        if L and k >= ts and (k - ts) % L == 0:
            if v in seen:
                break
            seen[v] = len(edges)
        m = seq.matrix(k)
        e = rng.choice([(k, v, b, i) for b in m.cols
                        for i in range(m.entry(v, b))])
        edges.append(e)
        k, v = k + 1, e[2]
    cut = seen[v] if L else len(edges)
    return LazyPath(emb.ambient, emb.to_ambient(edges[:cut]),
                    emb.to_ambient(edges[cut:]) or None, start=start)


def test_base_successor_is_the_first_return_of_the_ambient_successor():
    # the base inherits the ambient order at every level of the joint
    # layout, so its successor is the first ambient successor iterate that
    # is back in the base below the base successor's change level
    rng = random.Random(659)
    checked = {"periodic tail": 0, "truncated base": 0}
    for _ in range(400):
        amb_layout = (rng.randrange(3), rng.randrange(1, 4))
        base_layout = rng.choice([(rng.randrange(3), rng.randrange(1, 4)),
                                  (rng.randrange(1, 5), None)])
        amb, base, low = _nested(rng, rng.randrange(1, 3), amb_layout,
                                 base_layout)
        if not is_reduced(base):
            continue
        index_map = rng.choice([{}, _index_map(rng, base, low)])
        emb = _embedding(rng, amb, base, index_map)
        for _ in range(6):
            start = rng.randrange(2)
            if base.horizon is not None and start >= base.horizon:
                continue
            p = _random_base_path(rng, emb, start)
            q = emb.base_path(p)
            nxt = successor(q)
            if nxt is None:
                continue
            end = q.tail_start + len(q.tail_cycle or ())
            cur = p
            for _ in range(2000):
                cur = successor(cur)
                if all(emb.is_base_edge(e) for e in cur.word(end)):
                    break
            else:
                continue
            assert emb.to_ambient(nxt.word(end)) == cur.word(end)
            checked["truncated base" if base.horizon else "periodic tail"] += 1
    assert min(checked.values()) >= 150, checked


def test_return_times_count_ambient_steps():
    # in each endpoint class of depth-d ambient words, sorted by the
    # anti-lexicographic order read off the ambient level orders, a base
    # word's cyclic return time is the number of steps to the next base
    # word (wrapping), and its return time is the same number unless it is
    # the last base word
    rng = random.Random(647)
    checked = 0
    for _ in range(60):
        # base_min_word_into needs a reduced base; this pair shares a layout
        base, amb = random_nested_pair(rng, max_dim=3)
        low = [m.entries for m in amb.stored]
        emb = _embedding(rng, amb, base, _index_map(rng, base, low))
        order = emb.ambient.order
        for depth in (1, 2, 3, 4):
            classes = {}
            for w in enumerate_paths(emb.ambient, depth):
                classes.setdefault(w[-1][2], []).append(w)
            for words in classes.values():
                words.sort(key=lambda w: [order.incoming(e[0], e[2]).index(e)
                                          for e in reversed(w)])
                pos = [j for j, w in enumerate(words)
                       if all(emb.is_base_edge(e) for e in w)]
                for n, j in enumerate(pos):
                    steps = (pos[(n + 1) % len(pos)] - j) % len(words) \
                        or len(words)
                    assert cyclic_return_time(emb, words[j]) == steps
                    if n + 1 < len(pos):
                        assert return_time(emb, words[j]) == steps
                    else:
                        with pytest.raises(UndeterminedTail):
                            return_time(emb, words[j])
                    checked += 1
    assert checked >= 2000


def _steps_to_next_base_word(emb, path, end):
    """Successor steps from `path` until its edges below level `end` are
    base edges again."""
    steps = 0
    while True:
        path = successor(path)
        steps += 1
        if all(emb.is_base_edge(e) for e in path.word(end)):
            return steps


def test_return_times_above_level_zero_count_successor_steps():
    # a path that starts at level s > 0 is ranked among the words that
    # start at s: its return time is the number of successor steps to the
    # next path that is base up to its change level, and the cyclic return
    # time of the last base word wraps to the first one over the same levels
    emb = ics("triadic")
    path = LazyPath(emb.ambient, [(1, "0", "0", 2), (2, "0", "0", 0)],
                    start=1)
    assert return_time(emb, path) == 4
    assert _steps_to_next_base_word(emb, path, 3) == 4
    assert cyclic_return_time(emb, ((1, "0", "0", 2), (2, "0", "0", 2))) == 1
    rng = random.Random(653)
    checked = 0
    for _ in range(40):
        base, amb = random_nested_pair(rng, max_dim=3)
        low = [m.entries for m in amb.stored]
        emb = _embedding(rng, amb, base, _index_map(rng, base, low))
        order = emb.ambient.order
        for start in (1, 2, 3):
            for depth in (1, 2, 3):
                end = start + depth
                classes = {}
                for w in {w[start:]
                          for w in enumerate_paths(emb.ambient, end)}:
                    classes.setdefault(w[-1][2], []).append(w)
                for words in classes.values():
                    words.sort(key=lambda w: [
                        order.incoming(e[0], e[2]).index(e)
                        for e in reversed(w)])
                    pos = [j for j, w in enumerate(words)
                           if all(emb.is_base_edge(e) for e in w)]
                    for n, j in enumerate(pos):
                        w = words[j]
                        steps = (pos[(n + 1) % len(pos)] - j) % len(words) \
                            or len(words)
                        assert cyclic_return_time(emb, w) == steps
                        if n + 1 < len(pos):
                            path = LazyPath(emb.ambient, w, start=start)
                            assert return_time(emb, w) == steps
                            assert return_time(emb, path) == steps
                            assert _steps_to_next_base_word(
                                emb, path, end) == steps
                        checked += 1
    assert checked >= 500


def test_unreduced_base_raises_not_reduced():
    # no base edge enters vertex 1: the base-minimal walk back from a
    # base word cannot pass through it
    amb = constant([[2, 1], [1, 2]])
    base = constant([[1, 0], [1, 0]])
    emb = SubdiagramEmbedding(BratteliDiagram(amb), base)
    with pytest.raises(NotReduced, match="vertex '1' at level 1"):
        cyclic_return_time(emb, ((0, "1", "0", 0), (1, "0", "0", 0)))
    # with the edge 1 -> 0 first into 0, the Kac sum's walk takes it
    order = StableOrder(amb, cycle_orders=[{"0": [("1", 0), ("0", 0),
                                                  ("0", 1)]}])
    emb = SubdiagramEmbedding(BratteliDiagram(amb, order), base)
    with pytest.raises(NotReduced, match="vertex '1' at level 1"):
        kac_partial_sum(emb, None, 2)


@pytest.mark.parametrize("index_map", [
    {("cycle", 0, "0", "0"): [0, 5]},   # ambient index out of range
    {("cycle", 0, "0", "0"): [1, 1]},   # repeated index
    {("cycle", 3, "0", "0"): [0, 1]},   # no phase 3 in a period of 1
    {(5, "0", "0"): [1, 2]},            # level 5 is in the cycle
    {("cycle", 0, "0", "0"): [0]},      # one index for two base edges
    {(0, "0", "0"): [0, 1]},            # no prefix
    {"0": [0, 1]},                      # not a key shape
])
def test_malformed_embedding_maps_are_rejected(index_map):
    ambient = BratteliDiagram(constant([[3]]))
    with pytest.raises(ShapeMismatch):
        SubdiagramEmbedding(ambient, constant([[2]]), index_map)


@pytest.mark.parametrize("cycle_from, entries", [
    (1, (3, 2, 2, 2)),    # a longer ambient prefix
    (0, (3, 2, 3, 2)),    # a longer ambient period
])
def test_embedding_values_are_checked_at_every_joint_level(cycle_from,
                                                           entries):
    # the base's one cycle matrix sits at ambient level 0 (3 edges) and at
    # level 1 (2 edges); index 2 exists only at level 0
    amb = from_int_matrices([[[3]], [[2]]], cycle_from=cycle_from)
    base = constant([[2]])
    ambient = BratteliDiagram(amb)
    with pytest.raises(ShapeMismatch, match="level 1"):
        SubdiagramEmbedding(ambient, base, {("cycle", 0, "0", "0"): [0, 2]})
    emb = SubdiagramEmbedding(ambient, base, {("cycle", 0, "0", "0"): [1, 0]})
    assert emb.base_indices(0, "0", "0") == [1, 0]
    assert emb.base_indices(9, "0", "0") == [1, 0]
    # the nesting check and the cover read the same joint levels
    assert submatrix_leq(constant([[3]]), amb).witness == {
        "level": 1, "entry": ["0", "0"], "values": [3, 2]}
    assert [canonical_cover(base, amb).cover.matrix(k).to_lists()
            for k in range(4)] == [[[n, n - 2], [0, 2]] for n in entries]

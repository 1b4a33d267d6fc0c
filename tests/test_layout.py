"""The level layout of matrix sequences: `seq.matrix(k)`, the stable
order's level orders and incoming edges, and the state split's pairs all
read level k from the same stored position, and all fail with the same
error outside the sequence (IndexError below level 0, HorizonExceeded at
or past a truncated horizon)."""

import json
import random

import pytest

from adic.errors import HorizonExceeded, ShapeMismatch
from adic.matrixseq import Truncated, split_matrix, state_split
from adic.diagram import BratteliDiagram, StableOrder

from conftest import random_ep_sequence


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
    from all four lookups."""
    split = state_split(seq)
    for k in levels:
        error = error_at(k)
        if error is not None:
            assert _outcome(seq.matrix, k) is error
            assert _outcome(order.level_orders, k) is error
            assert _outcome(order.incoming, k, "0") is error
            assert _outcome(split.pair, k) is error
            continue
        m = old_matrix(k)
        assert seq.matrix(k) is m
        assert order.level_orders(k) == old_orders(k)
        for b in m.cols:
            assert order.incoming(k, b) == [(k, a, b, i)
                                            for (a, i) in old_orders(k)[b]]
        assert split.pair(k) == split_matrix(m)


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

import collections
import random

import pytest

from adic.errors import (
    IncompatibleAlphabets,
    HorizonExceeded,
    ShapeMismatch,
)
from adic import frobenius, matrixseq
from adic.matrixseq import (
    GenMatrix,
    EventuallyPeriodic,
    Truncated,
    constant,
    from_int_matrices,
    partial_product,
    submatrix_leq,
    gather,
    reduce_sequence,
    is_reduced,
    is_primitive,
    wielandt_bound,
)

from conftest import (cycle_with_loop, random_ep_sequence,
                      random_reduced_sequence)


def test_matrix_multiplication_hand_oracle():
    a = GenMatrix.from_lists(("x", "y"), ("p", "q"), [[1, 2], [0, 3]])
    b = GenMatrix.from_lists(("p", "q"), ("u",), [[5], [7]])
    c = a.mul(b)
    # [1*5+2*7, 0*5+3*7]
    assert c.entry("x", "u") == 19
    assert c.entry("y", "u") == 21


def test_matrix_alphabet_mismatch():
    a = GenMatrix.from_lists(("x",), ("p",), [[1]])
    b = GenMatrix.from_lists(("z",), ("u",), [[1]])
    with pytest.raises(IncompatibleAlphabets):
        a.mul(b)


def test_partial_product_inclusive():
    seq = constant([[2]], ["0"])
    # product over levels 1..3 inclusive: 2^3
    assert partial_product(seq, 1, 3).entry("0", "0") == 8
    # single level
    assert partial_product(seq, 5, 5).entry("0", "0") == 2


def test_partial_product_associativity_random():
    rng = random.Random(7)
    for _ in range(20):
        seq = random_ep_sequence(rng)
        p = partial_product(seq, 0, 3)
        q = partial_product(seq, 0, 1).mul(partial_product(seq, 2, 3))
        assert p == q


def test_truncated_horizon():
    t = Truncated([GenMatrix.from_lists(("0",), ("0",), [[2]])] * 3)
    assert t.horizon == 3
    with pytest.raises(HorizonExceeded):
        t.matrix(3)
    # reduction is a statement about the infinite sequence
    with pytest.raises(ShapeMismatch, match="stream_decompose"):
        reduce_sequence(t)


def test_eventually_periodic_phase_and_alphabets():
    seq = from_int_matrices([[[1, 1]], [[1], [1]], [[1, 1]], [[1], [1]]],
                            cycle_from=2,
                            labels=[("0",), ("0", "1"), ("0",), ("0", "1"),
                                    ("0",)])
    assert seq.prefix_len == 2 and seq.period == 2
    assert seq.alphabet(2) == seq.alphabet(4)
    assert seq.matrix(3) == seq.matrix(5)


def test_submatrix_leq_exact():
    base = constant([[2]], ["0"])
    amb = constant([[3]], ["0"])
    assert submatrix_leq(base, amb).is_yes()
    assert submatrix_leq(amb, base).is_no()


def test_submatrix_leq_truncated_undecided():
    base = Truncated([GenMatrix.from_lists(("0",), ("0",), [[2]])] * 2)
    amb = constant([[3]], ["0"])
    v = submatrix_leq(base, amb)
    assert not v.is_decided()
    assert v.horizon == 2


def test_gather_times():
    seq = constant([[2]], ["0"])
    g = gather(seq, times=[0, 2, 5])
    assert g.matrix(0).entry("0", "0") == 4
    assert g.matrix(1).entry("0", "0") == 8


def test_gather_blocks_periodic():
    seq = constant([[1, 1], [1, 0]], ["0", "1"])
    g = gather(seq, blocks=([], [2]))
    assert g.is_eventually_periodic
    # [[1,1],[1,0]]^2 = [[2,1],[1,1]]
    assert g.matrix(0).to_lists() == [[2, 1], [1, 1]]


def _random_blocks(rng, total, least):
    """A random list of at least `least` positive ints summing to total."""
    cuts = sorted(rng.sample(range(1, total),
                             rng.randrange(least - 1, total)))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def test_gather_blocks_with_prefix_blocks_are_partial_products():
    # output term j is the product over the levels of block j, the prefix
    # blocks first, then the cycle blocks repeating
    rng = random.Random(37)
    checked = 0
    while checked < 40:
        seq = random_ep_sequence(rng, max_prefix=3)
        if seq.prefix_len == 0:
            continue
        prefix_blocks = _random_blocks(
            rng, max(2, seq.prefix_len + rng.randrange(3)), 2)
        cycle_blocks = _random_blocks(rng, seq.period * rng.randrange(1, 4), 1)
        g = gather(seq, blocks=(prefix_blocks, cycle_blocks))
        assert g.prefix_len == len(prefix_blocks)
        assert g.period == len(cycle_blocks)
        start = 0
        for j, b in enumerate(prefix_blocks + 2 * cycle_blocks):
            assert g.matrix(j) == partial_product(seq, start, start + b - 1)
            start += b
        checked += 1


def test_gather_blocks_validation():
    seq = constant([[2]], ["0"])
    with pytest.raises(ShapeMismatch):
        gather(seq)
    with pytest.raises(ShapeMismatch):
        gather(seq, times=[1, 2])


def test_reduce_drops_dead_symbol():
    # symbol "1" has no outgoing edges on the cycle
    seq = constant([[2, 1], [0, 0]], ["0", "1"])
    red, log = reduce_sequence(seq)
    assert list(red.alphabet(0)) == ["0"]
    assert is_reduced(red)
    assert not is_reduced(seq)


def _removes_symbols(seq):
    """Reference for is_reduced: reduce_sequence logs a removed symbol, for
    a window once it is continued by the all-ones square matrix on its last
    alphabet."""
    if not seq.is_eventually_periodic:
        last = seq.alphabet(seq.horizon)
        ones = GenMatrix(last, last, {(a, b): 1 for a in last for b in last})
        seq = EventuallyPeriodic(seq.terms, [ones])
    _, log = reduce_sequence(seq)
    return any(log["levels"].values()) or any(log["periodic"].values())


def _random_truncated(rng):
    """A random chain of 1-4 matrices, zero rows and columns allowed."""
    dims = [rng.randrange(1, 4) for _ in range(rng.randrange(2, 6))]
    terms = []
    for d0, d1 in zip(dims, dims[1:]):
        rows = tuple(str(j) for j in range(d0))
        cols = tuple(str(j) for j in range(d1))
        terms.append(GenMatrix(rows, cols, {
            (a, b): 1 for a in rows for b in cols if rng.random() < 0.45}))
    return Truncated(terms)


def test_is_reduced_matches_the_reduction_log():
    # every stored matrix has no zero row and no zero column; the reduced
    # windows are the first terms of reduced sequences
    rng = random.Random(83)
    kinds = {}
    for _ in range(400):
        seqs = [random_ep_sequence(rng), random_reduced_sequence(rng),
                _random_truncated(rng)]
        red = random_reduced_sequence(rng)
        seqs.append(Truncated([red.matrix(j)
                               for j in range(rng.randrange(1, 8))]))
        for seq in seqs:
            want = not _removes_symbols(seq)
            assert is_reduced(seq) == want, seq.stored
            key = (seq.is_eventually_periodic, want)
            kinds[key] = kinds.get(key, 0) + 1
    assert len(kinds) == 4 and min(kinds.values()) >= 100, kinds


def test_reduce_constant_triangular_is_already_reduced():
    seq = constant([[3, 1], [0, 2]], ["0", "1"])
    red, _ = reduce_sequence(seq)
    assert red.prefix_len == 0
    assert red.matrix(0).to_lists() == [[3, 1], [0, 2]]


def test_reduce_left_dead_symbol():
    # symbol "1" unreachable from level 0: first matrix has zero column
    seq = from_int_matrices([[[1, 0]], [[2, 1], [0, 2]]], cycle_from=1,
                            labels=[("0",), ("0", "1"), ("0", "1")])
    red, _ = reduce_sequence(seq)
    alphas = [set(red.alphabet(i)) for i in range(3)]
    assert alphas[0] == {"0"}
    assert "1" not in alphas[1]


def test_reduce_idempotent_random():
    rng = random.Random(11)
    for _ in range(25):
        red = random_reduced_sequence(rng)
        red2, _ = reduce_sequence(red)
        P = red.prefix_len + 2 * red.period
        for i in range(P):
            assert red2.matrix(i) == red.matrix(i)


def test_is_primitive_positive():
    v = is_primitive(constant([[1, 1], [1, 1]], ["0", "1"]))
    assert v.is_yes()


def test_is_primitive_periodic_cycle_is_no():
    # permutation matrix: irreducible but never positive
    v = is_primitive(constant([[0, 1], [1, 0]], ["0", "1"]))
    assert v.is_no()
    # the witness records the repeated boolean state
    assert v.witness


def test_is_primitive_golden_mean():
    v = is_primitive(constant([[1, 1], [1, 0]], ["0", "1"]))
    assert v.is_yes()


def test_is_primitive_of_a_window_raises():
    t = Truncated([GenMatrix.from_lists(("0", "1"), ("0", "1"),
                                        [[1, 1], [1, 0]])] * 2)
    with pytest.raises(ShapeMismatch, match="stream_decompose") as err:
        is_primitive(t)
    assert "\n" not in str(err.value)


def _dict_positivity_from(seq, k):
    """Reference: the boolean partial products as dict matrices, with the
    state (phase, rows, cols, entry set) as the repeat key."""
    def boolean(m):
        return GenMatrix(m.rows, m.cols, {e: 1 for e in m.entries})

    B = boolean(seq.matrix(k))
    m = k + 1
    seen = set()
    while True:
        if B.is_positive():
            return ("yes", m - k)
        if any(all(B.entry(a, b) == 0 for b in B.cols) for a in B.rows):
            return ("no", m - k)
        if m >= seq.prefix_len:
            state = ((m - seq.prefix_len) % seq.period,
                     B.rows, B.cols, frozenset(B.entries))
            if state in seen:
                return ("no", m - k)
            seen.add(state)
        B = B.mul(boolean(seq.matrix(m)))
        m += 1


def test_positivity_from_matches_dict_boolean_products():
    rng = random.Random(71)
    for trial in range(600):
        seq = random_ep_sequence(rng, max_dim=5, max_period=4, max_prefix=3)
        if trial % 2:
            # the closing matrix lists its columns in another order
            last = seq.cycle[-1]
            cols = list(last.cols)
            rng.shuffle(cols)
            seq = EventuallyPeriodic(
                seq.prefix,
                seq.cycle[:-1] + [GenMatrix(last.rows, cols, last.entries)])
        table = {}
        for k in range(seq.prefix_len + seq.period):
            assert (matrixseq._positivity_from(seq, k, table)
                    == _dict_positivity_from(seq, k))


def _wielandt_matrix(n):
    """Wielandt's n x n matrix: the n-cycle plus one chord n-1 -> 1, whose
    least positive power is the bound (n - 1)^2 + 1 itself."""
    mat = [[0] * n for _ in range(n)]
    for j in range(n):
        mat[j][(j + 1) % n] = 1
    mat[n - 1][1] = 1
    return constant(mat)


def _late_zero_row(n):
    """A prefix sending every row to symbol 0, then the n-chain with an
    empty last row: the product from level 0 first gets a zero row after
    n + 1 steps."""
    labs = tuple(str(j) for j in range(n))
    funnel = GenMatrix(labs, labs, {(a, "0"): 1 for a in labs})
    chain = GenMatrix(labs, labs, {(labs[j], labs[j + 1]): 1
                                   for j in range(n - 1)})
    return EventuallyPeriodic([funnel], [chain])


def _shuffled_columns(rng, seq):
    """The same sequence with some stored matrices listing their columns
    in another order."""
    stored = []
    for m in seq.stored:
        cols = list(m.cols)
        if rng.random() < 0.5:
            rng.shuffle(cols)
        stored.append(GenMatrix(m.rows, cols, m.entries))
    return EventuallyPeriodic(stored[:seq.prefix_len], stored[seq.prefix_len:])


def _kernel_cases(seq):
    """The structural cases of one sequence that the positivity kernel
    handles apart."""
    stored = seq.stored
    nxt = stored[1:] + [stored[seq.prefix_len]]
    cases = set()
    if any(len({b for _, b in m.entries}) < len(m.cols) for m in stored):
        cases.add("zero column")
    if any(len(m.cols) == 1 for m in stored):
        cases.add("one column")
    if any(len({b for _, b in m.entries}) < len(m.entries) for m in stored):
        cases.add("two or more sources")
    if any(m.cols != after.rows for m, after in zip(stored, nxt)):
        cases.add("reordered columns")
    if any(m.rows != m.cols for m in seq.prefix):
        cases.add("rectangular prefix")
    if max(len(m.rows) for m in stored) >= 8:
        cases.add("dim 8 to 10")
    return cases


def _sparse_sequence(rng):
    """A random eventually periodic sequence with one or two entries in
    most rows, some zero rows and some one-symbol levels: its boolean
    products take many steps to fill in or to repeat."""
    P, T = rng.randrange(3), rng.randrange(1, 5)
    dims = [1 if rng.random() < 0.15 else rng.randrange(2, 9)
            for _ in range(P + T)]
    dims.append(dims[P])
    mats = []
    for d0, d1 in zip(dims, dims[1:]):
        rows = tuple(str(j) for j in range(d0))
        cols = tuple(str(j) for j in range(d1))
        entries = {}
        for a in rows:
            if rng.random() < 0.02:
                continue
            for _ in range(1 + (rng.random() < 0.3)):
                entries[(a, rng.choice(cols))] = 1
        mats.append(GenMatrix(rows, cols, entries))
    return EventuallyPeriodic(mats[:P], mats[P:])


def _positivity_kernel_set(rng):
    """Cycles with a loop, Wielandt's matrices, late zero rows, and seeded
    random sequences (dims up to 10, and sparse ones), half of them with
    reordered columns."""
    seqs = [cycle_with_loop(n) for n in (8, 17, 33, 68)]
    seqs += [_wielandt_matrix(n) for n in range(2, 9)]
    seqs += [_late_zero_row(n) for n in (3, 8, 12)]
    for trial in range(240):
        if trial % 3 == 0:
            seq = random_ep_sequence(rng, max_dim=10, max_period=3,
                                     max_prefix=3)
        elif trial % 3 == 1:
            seq = random_ep_sequence(rng, max_dim=3, max_period=4,
                                     max_prefix=2)
        else:
            seq = _sparse_sequence(rng)
        seqs.append(_shuffled_columns(rng, seq) if trial % 2 else seq)
    return seqs


def _first_positive_power(cycle, k):
    """The least n for which n matrices of `cycle` from level k have a
    strictly positive product, by reach sets; None if none within 200."""
    reach = {a: {a} for a in cycle.matrix(k).rows}
    for n in range(1, 201):
        m = cycle.matrix(k + n - 1)
        adj = {}
        for (a, b) in m.entries:
            adj.setdefault(a, set()).add(b)
        reach = {a: set().union(*(adj.get(x, ()) for x in r))
                 for a, r in reach.items()}
        if all(len(r) == len(m.cols) for r in reach.values()):
            return n
    return None


def test_positivity_kernel_matches_the_dict_oracle_on_every_start_level():
    rng = random.Random(2021)
    results = collections.Counter()
    cases = collections.Counter()
    for seq in _positivity_kernel_set(rng):
        table = {}
        seq_cases = _kernel_cases(seq)
        for k in range(len(seq.stored)):
            got = matrixseq._positivity_from(seq, k, table)
            assert got == _dict_positivity_from(seq, k), (seq.stored, k)
            results[got[0]] += 1
            # runs past two passes over the stored matrices take the
            # gather steps
            long_run = got[1] > 2 * len(seq.stored)
            results["gather"] += long_run
            for case in seq_cases:
                cases[case] += 1
                cases[case, "gather"] += long_run
            if got[0] == "no" and got[1] > 1 and \
                    len({a for a, _ in seq.matrix(k).entries}) \
                    == len(seq.matrix(k).rows):
                prod = partial_product(seq, k, k + got[1] - 1)
                if len({a for a, _ in prod.entries}) < len(prod.rows):
                    cases["zero row after step 1"] += 1
                    cases["zero row after step 1", "gather"] += long_run
    assert results["yes"] >= 300 and results["no"] >= 300 \
        and results["gather"] >= 50, results
    assert min(cases[c] for c in (
        "zero column", "one column", "two or more sources",
        "reordered columns", "rectangular prefix", "dim 8 to 10",
        "zero row after step 1")) >= 20, cases
    assert min(cases[c, "gather"] for c in (
        "zero column", "two or more sources", "reordered columns",
        "rectangular prefix", "dim 8 to 10")) >= 20, cases
    assert cases["zero row after step 1", "gather"] >= 2, cases


def test_certified_positivity_powers_are_least():
    # each positive_after[k] = n of a stream certificate, on the reduced
    # members of the kernel set, is the least n: n matrices from k have a
    # positive product and n - 1 do not
    seqs = []
    for seq in _positivity_kernel_set(random.Random(2021)):
        red = reduce_sequence(seq)[0]
        if all(m.rows for m in red.stored):
            seqs.append(red)
    checked = collections.Counter()
    for seq in seqs:
        decomp = frobenius.stream_decompose(seq)
        for s in decomp.streams:
            v = decomp.certificates["streams"][s.index]
            assert v.is_yes()
            for k, n in v.witness["positive_after"].items():
                assert _first_positive_power(s.induced_cycle(), k) == n
                checked[n > 1] += 1
    assert checked[True] >= 50 and checked[False] >= 50, checked


def test_is_primitive_of_an_empty_alphabet_is_no():
    # a level with an empty alphabet has no positive product; the same
    # levels as a window are not an eventually periodic sequence
    empty = GenMatrix((), ("0",))
    loop = GenMatrix(("0",), ("0",), {("0", "0"): 1})
    cases = ((EventuallyPeriodic([empty], [loop]), Truncated([empty, loop])),
             (EventuallyPeriodic([loop, loop.restrict(("0",), ())],
                                 [GenMatrix((), ())]),
              Truncated([loop, loop.restrict(("0",), ()),
                         GenMatrix((), ())])))
    for seq, window in cases:
        v = is_primitive(seq)
        assert v.is_no() and v.witness == {"reason": "empty alphabet"}
        with pytest.raises(ShapeMismatch):
            is_primitive(window)


def test_is_primitive_makes_no_matrix_products(mul_calls):
    v = is_primitive(cycle_with_loop(68))
    assert v.is_yes()
    assert mul_calls == []


def test_wielandt_bound():
    assert wielandt_bound(1) == 1
    assert wielandt_bound(2) == 2
    assert wielandt_bound(3) == 5
    # Wielandt's matrices attain it
    for n in range(2, 9):
        v = is_primitive(_wielandt_matrix(n))
        assert v.witness == {"positive_after": {0: wielandt_bound(n)},
                             "wielandt_bound": wielandt_bound(n)}


def test_json_roundtrip_ep():
    seq = from_int_matrices([[[1, 1]], [[2], [1]], [[3]]], cycle_from=2,
                            labels=[("0",), ("0", "1"), ("0",), ("0",)])
    back = matrixseq.from_json(matrixseq.to_json(seq))
    assert back.prefix_len == seq.prefix_len
    assert back.period == seq.period
    for i in range(4):
        assert back.matrix(i) == seq.matrix(i)


def test_from_json_rejects_symbols_that_are_not_strings():
    # an alphabet is a list of string symbols: int symbols and a string
    # standing for an alphabet are malformed
    for doc in ({"alphabets": [[0], [0]], "prefix": [[[1]]],
                 "cycle": [[[1]]]},
                {"kind": "truncated", "alphabets": [[0], [0]],
                 "terms": [[[1]]]},
                {"alphabets": ["ab"], "cycle": [[[1, 1], [1, 1]]]}):
        with pytest.raises(ShapeMismatch, match="string symbols"):
            matrixseq.from_json(doc)


def test_json_roundtrip_truncated():
    t = Truncated([GenMatrix.from_lists(("0",), ("0", "1"), [[1, 2]]),
                   GenMatrix.from_lists(("0", "1"), ("0",), [[1], [3]])])
    back = matrixseq.from_json(matrixseq.to_json(t))
    assert back.horizon == 2
    for i in range(2):
        assert back.matrix(i) == t.matrix(i)


def test_reduce_preserves_path_counts_into_surviving():
    rng = random.Random(23)
    for _ in range(15):
        seq = random_ep_sequence(rng)
        try:
            red, _ = reduce_sequence(seq)
        except Exception:
            continue
        if not all(red.alphabet(i) for i in range(red.prefix_len + 2)):
            continue
        # reduced matrices are restrictions: entries agree on kept symbols
        for i in range(red.prefix_len + red.period):
            m, r = seq.matrix(i), red.matrix(i)
            for a in r.rows:
                for b in r.cols:
                    assert r.entry(a, b) == m.entry(a, b)

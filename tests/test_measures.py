import collections
import functools
import gc
import math
import random
import weakref
from fractions import Fraction

import pytest
import sympy

from adic import cones, frobenius, gallery, measures
from adic.errors import (MalformedWord, NoFiniteBaseMeasure, NotEigenvector,
                         NotNested)
from adic.matrixseq import (GenMatrix, EventuallyPeriodic, constant,
                            from_int_matrices, reduce_sequence, Truncated,
                            _compare_horizon)
from adic.cones import ExactEigvec, stream_period_eigenvalue
from adic.measures import (
    CentralMeasure,
    canonical_cover,
    two_by_two_series,
    is_distinguished,
    classify_measures,
    classify_subdiagram,
    parry_measure_stationary,
)
from adic.diagram import enumerate_paths
from adic.gallery import nested_odometer, nested_rotation

from conftest import (cover_matrix_reference, frobenius_victory_counts, labels,
                      nested_rotation_tails_rule, random_ep_sequence,
                      random_nested_pair, random_reduced_sequence,
                      telescoped_victory_counts)
from test_eigen import THREE_BLOCKS


# ---------------------------------------------------------------------------
# scalar series


def test_series_2_3_1_converges_to_three_halves():
    res = two_by_two_series(2, 3, 1, n=40)
    assert res.verdict.is_yes()
    assert res.limit == Fraction(3, 2)
    prev = Fraction(0)
    for n, s in enumerate(res.partial_sums):
        assert s >= prev  # monotone nondecreasing
        assert abs(s - Fraction(3, 2)) <= Fraction(2, 3) ** n * Fraction(3, 2)
        prev = s


def test_series_3_2_1_diverges_fast():
    res = two_by_two_series(3, 2, 1, n=40)
    assert res.verdict.is_no()
    assert res.limit is None
    assert any(s > 10 ** 6 for s in res.partial_sums)


def test_series_geometric_hand_oracle():
    # terms (1/2)^k: partial sums 2 - 2^{-n}
    res = two_by_two_series(1, 2, 1, n=10)
    assert res.limit == Fraction(2)
    assert res.partial_sums[3] == Fraction(2) - Fraction(1, 8)


def test_series_periodic_scalars():
    # ratio per period = (2*3)/(3*4) = 1/2 < 1: convergent
    res = two_by_two_series([2, 3], [3, 4], 1, n=30)
    assert res.verdict.is_yes()
    assert res.ratio == Fraction(1, 2)


def test_series_c_free_cycle_after_a_prefix():
    # c vanishes on the cycle and the per-period ratio 3/2 is >= 1: the
    # series is its head 1/1 + (1/1) * 1/2, which every later partial sum
    # already reaches
    res = two_by_two_series(([1, 2], [3]), ([1, 1], [2]), ([1, 1], [0]),
                            n=12)
    assert res.ratio == Fraction(3, 2)
    assert res.verdict.is_yes()
    assert res.verdict.witness == {"limit": Fraction(3, 2),
                                   "reason": "c vanishes on the cycle"}
    assert res.limit == Fraction(3, 2)
    assert res.partial_sums[1:] == [res.limit] * 12


def old_two_by_two_series(a, b, c, n):
    """two_by_two_series as it was before its terms were read once: the
    limit's verdict witness, partial sums, limit and ratio."""
    (ap, ac), (bp, bc), (cp, cc) = [
        (list(x[0]), list(x[1])) if isinstance(x, tuple)
        else ([], list(x)) if isinstance(x, list) else ([], [x])
        for x in (a, b, c)]
    P = max(len(ap), len(bp), len(cp))
    T = math.lcm(len(ac), len(bc), len(cc))

    def at(pre, cyc, k):
        return pre[k] if k < len(pre) else cyc[(k - len(pre)) % len(cyc)]

    def term(k):
        return Fraction(at(cp, cc, k), at(ap, ac, k))

    def factor(k):
        return Fraction(at(ap, ac, k), at(bp, bc, k))

    def total(ks, pi):
        s = Fraction(0)
        for k in ks:
            s += pi * term(k)
            pi *= factor(k)
        return s, pi

    ratio = Fraction(1)
    for k in range(P, P + T):
        ratio *= factor(k)
    partial = [total(range(k + 1), Fraction(1))[0] for k in range(n + 1)]
    if not any(at(cp, cc, k) for k in range(P, P + T)):
        limit = total(range(P + T), Fraction(1))[0]
        return ({"limit": limit, "reason": "c vanishes on the cycle"},
                partial, limit, ratio)
    if ratio < 1:
        head, pi = total(range(P), Fraction(1))
        limit = head + total(range(P, P + T), pi)[0] / (1 - ratio)
        return {"limit": limit, "period_ratio": ratio}, partial, limit, ratio
    return ({"period_ratio": ratio, "reason": "terms do not vanish"},
            partial, None, ratio)


def test_series_matches_the_old_three_pass_sums():
    rng = random.Random(53)
    kinds = set()

    def scalars(low):
        pre = [rng.randint(low, 4) for _ in range(rng.randrange(3))]
        cyc = [rng.randint(low, 4) for _ in range(rng.randint(1, 3))]
        return (pre, cyc) if pre or rng.random() < 0.5 else cyc

    for _ in range(300):
        a, b, c = scalars(1), scalars(1), scalars(0)
        n = rng.randrange(12)
        res = two_by_two_series(a, b, c, n=n)
        witness, partial, limit, ratio = old_two_by_two_series(a, b, c, n)
        assert res.verdict.witness == witness
        assert (res.partial_sums, res.limit, res.ratio) == (
            partial, limit, ratio)
        kinds.add(tuple(sorted(witness)))
    assert len(kinds) == 3


# ---------------------------------------------------------------------------
# canonical cover


def test_canonical_cover_of_odometers():
    cov = canonical_cover(constant([[2]], ["0"]), constant([[3]], ["0"]))
    m = cov.cover.matrix(0)
    vals = sorted(m.entries.values())
    assert sorted(v for v in vals) == [1, 2, 3]
    # upper-left ambient block 3, upper-right difference 1, lower-right base 2
    labels = sorted(m.rows)
    prim = [a for a in m.rows if a not in ("0",)][0]
    assert m.entry(prim, prim) == 3
    assert m.entry(prim, "0") == 1
    assert m.entry("0", "0") == 2
    assert m.entry("0", prim) == 0


def test_canonical_cover_rejects_non_nested():
    with pytest.raises(NotNested):
        canonical_cover(constant([[3]], ["0"]), constant([[2]], ["0"]))


def test_canonical_cover_entry_sum_doubling_random():
    rng = random.Random(9)
    done = 0
    for _ in range(40):
        base, amb = random_nested_pair(rng)
        cov = canonical_cover(base, amb)
        for k in range(cov.cover.prefix_len + cov.cover.period):
            assert (cov.cover.matrix(k).entry_sum()
                    == 2 * amb.matrix(k).entry_sum())
        done += 1
    assert done == 40


def _primed_names(rng, seq):
    """`seq` with each symbol s renamed s + "'" * j, j in 0..2 drawn per
    symbol, the same at every level."""
    names = {}

    def name(a):
        if a not in names:
            names[a] = a + "'" * rng.randrange(3)
        return names[a]

    def rename(m):
        return GenMatrix(map(name, m.rows), map(name, m.cols),
                         {(name(a), name(b)): v
                          for (a, b), v in m.entries.items()})

    if seq.is_eventually_periodic:
        return EventuallyPeriodic([rename(m) for m in seq.prefix],
                                  [rename(m) for m in seq.cycle])
    return Truncated([rename(m) for m in seq.terms])


def test_cover_levels_match_the_block_oracle():
    """Each cover level is one GenMatrix built from Mhat's and M's entries;
    the construction from three validated matrices (M zero-extended,
    Mhat - M, the block assembly; `cover_matrix_reference`) is the
    oracle.  Rows, columns and entries, in the same order, agree on seeded
    nested pairs: eventually periodic, truncated on either side or both,
    and with symbol names that end in "'"."""
    rng = random.Random(7117)
    kinds = collections.Counter()
    for j in range(360):
        base, amb = random_nested_pair(rng, max_dim=4, max_period=3)
        if j % 3 == 1:
            # one renaming for both, so the pair stays nested
            state = rng.getstate()
            base = _primed_names(rng, base)
            rng.setstate(state)
            amb = _primed_names(rng, amb)
            kinds["primed"] += any(a.endswith("'") for a in amb.alphabet(0))
        if j % 3 == 2:
            n = base.prefix_len + base.period + 1
            hb, ha = rng.randint(1, n), rng.randint(1, n)
            which = rng.randrange(3)
            if which != 1:
                base = Truncated([base.matrix(k) for k in range(hb)])
            if which != 0:
                amb = Truncated([amb.matrix(k) for k in range(ha)])
            kinds["truncated"] += 1
        cover = canonical_cover(base, amb).cover
        P, L = _compare_horizon(base, amb)
        names = {a for k in range(P + L + 1) for a in amb.alphabet(k)}
        prime = "'" * (1 + max(len(a) - len(a.rstrip("'")) for a in names))
        for k in range(P + L):
            got = cover.matrix(k)
            want = cover_matrix_reference(amb.matrix(k), base.matrix(k),
                                          prime)
            assert repr(got) == repr(want)
            assert list(got.entries.items()) == list(want.entries.items())
        assert (cover.is_eventually_periodic, cover.horizon) == \
            (bool(L), None if L else P)
        kinds["pairs"] += 1
    assert kinds["pairs"] >= 300
    assert kinds["primed"] >= 80 and kinds["truncated"] >= 100


# ---------------------------------------------------------------------------
# distinguished eigenvector sequences


def _finite_ray(seq):
    cls = classify_measures(seq)
    for e in cls.measures:
        if e.verdict.is_yes():
            return e.ray
    raise AssertionError("no finite measure")


def test_is_distinguished_self_is_yes():
    m = constant([[2]], ["0"])
    v = is_distinguished(_finite_ray(m), m, m)
    assert v.is_yes()


def test_is_distinguished_dyadic_in_triadic_is_no():
    m = constant([[2]], ["0"])
    v = is_distinguished(_finite_ray(m), m, constant([[3]], ["0"]))
    assert v.is_no()


def test_is_distinguished_finite_difference_is_yes():
    # base and ambient agree except at one initial level
    m = from_int_matrices([[[2]], [[2]]], cycle_from=1,
                          labels=[("0",), ("0",), ("0",)])
    mhat = from_int_matrices([[[3]], [[2]]], cycle_from=1,
                             labels=[("0",), ("0",), ("0",)])
    v = is_distinguished(_finite_ray(m), m, mhat)
    assert v.is_yes()


def test_is_distinguished_rejects_a_sequence_that_is_not_an_eigenvector():
    # on the dyadic odometer w_i = 2 w_{i+1}; the check runs before any
    # cover is built, for either ray type
    m = constant([[2]], ["0"])
    one, two, three = Fraction(1), Fraction(2), Fraction(3)
    good = ExactEigvec(m, 1, 1, 2, [{"0": one}], [{"0": two}], 0)
    assert is_distinguished(good, m, m).is_yes()
    bad = [
        cones.EigvecSeqApprox([{"0": one}, {"0": one}], 0, "test"),
        cones.EigvecSeqApprox([{"0": one}], 0, "test"),
        ExactEigvec(m, 1, 1, 2, [{"0": one}], [{"0": three}], 0),
    ]
    for w in bad:
        with pytest.raises(NotEigenvector) as info:
            is_distinguished(w, m, m)
        assert str(info.value) == "relations w_i = M_i w_{i+1} fail"


def test_is_distinguished_agrees_with_classify_subdiagram():
    # both read one cover decomposition: the ray of each finite base
    # measure is distinguished iff its tower is finite
    rng = random.Random(7)
    counts = {"yes": 0, "no": 0}
    for _ in range(150):
        base, amb = random_nested_pair(rng)
        for r in classify_subdiagram(base, amb):
            if r.base_measure.ray is None:
                continue
            v = is_distinguished(r.base_measure.ray, base, amb)
            assert v.value == r.verdict.value
            counts[v.value] += 1
    assert counts["yes"] >= 30 and counts["no"] >= 100, counts


def _random_rotation_pair(rng):
    """Partial-quotient specs n <= nhat, seeded: nhat raises some terms of
    n's prefix, and for most pairs some of its cycle too."""
    prefix = [rng.randint(1, 3) for _ in range(rng.randrange(3))]
    cycle = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
    reps = rng.randint(1, 2)
    bump_tail = rng.random() < 0.7
    hat_prefix = [n + (rng.random() < 0.5) for n in prefix]
    hat_cycle = [n + (bump_tail and rng.random() < 0.5)
                 for n in cycle * reps]
    return (prefix, cycle), (hat_prefix, hat_cycle)


def test_nested_rotation_closed_form_agrees_with_classify_subdiagram():
    # nested_rotation's verdict is classify_subdiagram's; the tails rule
    # it used before is the oracle (conftest), on fixed specs and seeded
    # random pairs
    specs = [1, 2, 3, [1, 2], [2, 1], [1, 3], [2, 2, 1], ([2], [1]),
             ([1], [3, 2])]
    pairs = [(n, nhat) for n in specs for nhat in specs]
    rng = random.Random(61)
    pairs += [_random_rotation_pair(rng) for _ in range(60)]
    counts = {"yes": 0, "no": 0}
    for n_spec, nhat_spec in pairs:
        try:
            r = nested_rotation(n_spec, nhat_spec)
        except NotNested:
            continue
        want = nested_rotation_tails_rule(n_spec, nhat_spec)
        assert r.verdict.value == want, (n_spec, nhat_spec)
        # one base measure, so its verdict is the pair's
        results = classify_subdiagram(r.base.seq, r.ambient.seq)
        assert [x.verdict.value for x in results] == [want]
        counts[want] += 1
    assert counts["yes"] >= 40 and counts["no"] >= 40, counts


def test_truncated_pair_is_undecided_at_the_cover_horizon():
    base = constant([[2]], ["0"])
    amb = Truncated([constant([[3]], ["0"]).matrix(k) for k in range(5)])
    v = is_distinguished(_finite_ray(base), base, amb)
    [r] = classify_subdiagram(base, amb)
    for verdict in (v, r.verdict):
        assert not verdict.is_decided() and verdict.horizon == 5
        assert verdict.witness == {"reason": "truncated data"}


# ---------------------------------------------------------------------------
# classification of ergodic measures


def test_classify_two_finite():
    cls = classify_measures(constant([[2, 1], [0, 3]], ["0", "1"]))
    assert len(cls.measures) == 2
    assert cls.finite_count == 2 and cls.infinite_count == 0


def test_classify_one_finite_one_infinite():
    cls = classify_measures(constant([[3, 1], [0, 2]], ["0", "1"]))
    assert cls.finite_count == 1 and cls.infinite_count == 1
    fin = [e for e in cls.measures if e.finite][0]
    inf = [e for e in cls.measures if not e.finite][0]
    assert stream_period_eigenvalue(fin.stream) == 3
    assert stream_period_eigenvalue(inf.stream) == 2
    assert inf.ray.ray0 == {"0": Fraction(0), "1": Fraction(1)}


def test_classify_chacon_atomic():
    cls = classify_measures(constant([[1, 1], [0, 3]], ["0", "1"]))
    assert cls.finite_count == 2
    atoms = [e for e in cls.measures if e.atomic]
    assert len(atoms) == 1
    assert atoms[0].atom["cycle_edges"][0][1:3] == ("0", "0")
    nonatomic = [e for e in cls.measures if not e.atomic][0]
    assert nonatomic.ray.ray0 == {"0": Fraction(1, 3), "1": Fraction(2, 3)}


def test_classify_rays_reverify():
    rng = random.Random(29)
    for _ in range(20):
        seq = random_reduced_sequence(rng, max_dim=3)
        cls = classify_measures(seq)
        for e in cls.measures:
            if isinstance(e.ray, ExactEigvec):
                assert e.ray.check()


# ---------------------------------------------------------------------------
# subdiagram classification


def test_classify_subdiagram_dyadic_in_triadic_infinite():
    res = classify_subdiagram(constant([[2]], ["0"]), constant([[3]], ["0"]))
    assert len(res) == 1
    assert res[0].verdict.is_no()


def test_classify_subdiagram_self_finite():
    res = classify_subdiagram(constant([[2]], ["0"]), constant([[2]], ["0"]))
    assert res[0].verdict.is_yes()


def test_classify_subdiagram_requires_nesting():
    with pytest.raises(NotNested):
        classify_subdiagram(constant([[3]], ["0"]), constant([[2]], ["0"]))


def _tower_pairs(rng, n=30):
    """The four paper pairs and n random nested pairs."""
    pairs = [(r.base.seq, r.ambient.seq) for r in (
        nested_odometer([2], [2, 1]),
        nested_odometer(([3, 4], [2]), 2),
        nested_rotation(1, 2),
        nested_rotation([1, 2], [1, 2]))]
    return pairs + [random_nested_pair(rng) for _ in range(n)]


def test_classify_subdiagram_builds_one_perron_root_per_stream(monkeypatch):
    # the towers' growth comparisons read the Perron root each stream
    # holds: no sympy minimal_polynomial, no sympy interval refinement to
    # an eps, and one root build per stream however often it is read
    pairs = _tower_pairs(random.Random(13))

    calls = {"minimal_polynomial": 0, "intervals_eps": 0}
    minimal_polynomial, intervals = sympy.minimal_polynomial, \
        sympy.Poly.intervals

    def counting_minimal_polynomial(*args, **kwargs):
        calls["minimal_polynomial"] += 1
        return minimal_polynomial(*args, **kwargs)

    def counting_intervals(self, *args, **kwargs):
        if kwargs.get("eps", args[1] if len(args) > 1 else None) is not None:
            calls["intervals_eps"] += 1
        return intervals(self, *args, **kwargs)

    monkeypatch.setattr(sympy, "minimal_polynomial",
                        counting_minimal_polynomial)
    monkeypatch.setattr(sympy.Poly, "intervals", counting_intervals)

    # each root build is charged to the stream whose period product it
    # reads; the products are kept so their ids stay unique
    products, builds, reads = {}, collections.Counter(), collections.Counter()
    period_product, init = frobenius.Stream.period_product, \
        cones.PerronRoot.__init__

    def tracked_period_product(stream):
        q = period_product(stream)
        products[id(q)] = (stream, q)
        return q

    def counting_init(root, q):
        builds[id(products[id(q)][0])] += 1
        init(root, q)

    def reading(fn, *streams):
        def wrapper(*args):
            for i in streams:
                reads[id(args[i])] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(frobenius.Stream, "period_product",
                        tracked_period_product)
    monkeypatch.setattr(cones.PerronRoot, "__init__", counting_init)
    monkeypatch.setattr(measures, "compare_streams",
                        reading(measures.compare_streams, 0, 1))
    monkeypatch.setattr(cones, "stream_period_eigenvalue",
                        reading(cones.stream_period_eigenvalue, 0))
    for base, amb in pairs:
        classify_measures(base)
        try:
            classify_subdiagram(base, amb)
        except NoFiniteBaseMeasure:
            pass
    assert calls == {"minimal_polynomial": 0, "intervals_eps": 0}
    assert builds and set(builds) <= set(reads)
    assert max(builds.values()) == 1
    # some stream is read more than once, so sharing is exercised
    assert sum(reads.values()) >= len(reads) + 10, sorted(reads.values())


def _check_bounds_witness(sign, wit, stream_a, stream_b):
    """Re-verify a "bounds" witness from the streams' input alone: each
    vector x is positive and lo*x <= Qx <= hi*x for the period product Q
    recomputed from the induced cycle, with lo and hi attained, and the
    two bound intervals are disjoint in the direction of the sign."""
    assert set(wit) == {"bounds", "vectors"}
    for (lo, hi), x, stream in zip(wit["bounds"], wit["vectors"],
                                   (stream_a, stream_b)):
        q = functools.reduce(GenMatrix.mul, stream.induced_cycle().cycle)
        assert isinstance(x, dict) and set(x) == set(q.rows)
        assert all(type(v) is int and v > 0 for v in x.values())
        qx = q.mul_vec(x)
        assert all(lo * x[a] <= qx[a] <= hi * x[a] for a in q.rows)
        ratios = [Fraction(qx[a], x[a]) for a in q.rows]
        assert (lo, hi) == (min(ratios), max(ratios))
    (alo, ahi), (blo, bhi) = wit["bounds"]
    assert not (alo == ahi and blo == bhi)
    assert bhi < alo if sign > 0 else (sign < 0 and ahi < blo)


def test_compare_streams_bounds_agree_with_exact_comparison(monkeypatch):
    # every comparison of the tower and classify paths: the sign is the
    # exact comparison's on fresh roots, and every bounds witness
    # re-verifies; sympy's charpoly runs only where the bounds cannot decide
    recorded = []
    compare_streams = measures.compare_streams

    def recording(a, b):
        out = compare_streams(a, b)
        recorded.append((a, b, out))
        return out

    charpolys = []
    charpoly = sympy.matrices.matrixbase.MatrixBase.charpoly

    def counting_charpoly(self, *args, **kwargs):
        charpolys.append(self)
        return charpoly(self, *args, **kwargs)

    monkeypatch.setattr(measures, "compare_streams", recording)
    monkeypatch.setattr(sympy.matrices.matrixbase.MatrixBase, "charpoly",
                        counting_charpoly)
    rng = random.Random(13)
    for base, amb in _tower_pairs(rng, 200):
        try:
            classify_subdiagram(base, amb)
        except NoFiniteBaseMeasure:
            pass
    tower_charpolys = len(charpolys)
    for _ in range(100):
        classify_measures(random_ep_sequence(rng))
    classify_measures(constant(THREE_BLOCKS, labels(6)))

    counts = collections.Counter()
    for a, b, (sign, wit) in recorded:
        fresh = cones.PerronRoot(a.period_product()).compare(
            cones.PerronRoot(b.period_product()))
        assert sign == fresh[0]
        if "bounds" in wit:
            _check_bounds_witness(sign, wit, a, b)
            counts["bounds"] += 1
        else:
            assert (sign, wit) == fresh
            points = [r.bounds is not None and r.bounds[0] == r.bounds[1]
                      for r in (a.perron_root, b.perron_root)]
            counts["points" if all(points) else "algebraic"] += 1
            counts["tie"] += sign == 0
    # decided by the bounds: a separation, or two roots whose bounds meet
    # (compare's Fraction witness); the rest read sympy's algebraic root
    assert counts["bounds"] >= 80 and counts["points"] >= 80, counts
    assert counts["bounds"] + counts["points"] >= 150, counts
    assert counts["points"] + counts["algebraic"] >= 10, counts
    assert counts["algebraic"] >= 1 and counts["tie"] >= 1, counts
    assert tower_charpolys <= 5, tower_charpolys


def test_classify_subdiagram_builds_no_base_ray(monkeypatch):
    # nothing in the tower verdict reads a base ray, so none is built until
    # a caller reads `base_measure.ray`, which then equals the ray that
    # classify_measures gives
    pairs = _tower_pairs(random.Random(17))

    calls = collections.Counter()

    def counting(name):
        fn = getattr(cones, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("exact_ray", "stream_base_ray", "eigvec_sequences",
                 "simplex_image"):
        monkeypatch.setattr(cones, name, counting(name))
    towers = []
    for base, amb in pairs:
        try:
            towers.append((base, classify_subdiagram(base, amb)))
        except NoFiniteBaseMeasure:
            pass
    assert not calls, calls
    read = 0
    for base, results in towers:
        by_stream = {e.stream.index: e
                     for e in classify_measures(base).measures}
        for r in results:
            want = by_stream[r.base_measure.stream.index].ray
            ray = r.base_measure.ray
            assert type(ray) is type(want)
            if ray is not None:
                assert ray.ray0 == want.ray0
                read += 1
    assert read >= 30 and calls["exact_ray"] >= read, (read, calls)


def test_classify_subdiagram_base_measures_equal_classify_measures():
    # the tower reads the base verdicts off the cover decomposition; each
    # base measure it returns is classify_measures(base)'s, in its index,
    # verdict and witness, and on read in its atom and ray
    rng = random.Random(23)
    # upper triangular bases have loops of many growth rates, so many
    # finite streams have communicating streams
    pairs = _tower_pairs(rng, 300) + [
        random_nested_pair(rng, max_dim=8, max_period=1, max_entry=3,
                           upper=True) for _ in range(600)]
    counts = collections.Counter()
    for base, amb in pairs:
        results = classify_subdiagram(base, amb)
        by_stream = {e.stream.index: e
                     for e in classify_measures(base).measures}
        finite = [i for i, e in by_stream.items() if e.verdict.is_yes()]
        assert [r.base_measure.stream.index for r in results] == finite
        covers = [r.witness["cover_stream"] for r in results]
        counts["reordered"] += covers != sorted(covers)
        for r in results:
            got, want = r.base_measure, by_stream[r.base_measure.stream.index]
            assert got.verdict.value == want.verdict.value
            assert got.verdict.witness == want.verdict.witness
            assert (got.atomic, got.atom) == (want.atomic, want.atom)
            assert got.ray.ray0 == want.ray.ray0
            counts["measures"] += 1
            counts["communicating"] += bool(want.verdict.witness[
                "communicating"])
    assert counts["measures"] >= 1000, counts
    assert counts["communicating"] >= 50, counts
    # the cover numbers some base streams in another order
    assert counts["reordered"] >= 1, counts


def test_classify_subdiagram_resolves_the_cover_table_only(monkeypatch):
    # one table and one certificate set per tower, the cover's; the base's
    # are built once, when a base-only field such as its certificates (or
    # a ray with a rational root) is read
    calls = collections.Counter()

    def counting(name):
        fn = getattr(frobenius, name)

        def wrapper(decomp):
            calls[name] += 1
            return fn(decomp)
        return wrapper

    for name in ("_fill_table", "_certify"):
        monkeypatch.setattr(frobenius, name, counting(name))
    towers = 0
    for base, amb in _tower_pairs(random.Random(29)):
        calls.clear()
        results = classify_subdiagram(base, amb)
        assert calls == {"_fill_table": 1, "_certify": 1}, calls
        for _ in range(2):
            for r in results:
                r.base_measure.ray
                r.base_measure.decomposition.certificates
        assert calls == {"_fill_table": 2, "_certify": 2}, calls
        towers += 1
    assert towers >= 30


def test_dropped_results_free_their_decompositions_without_the_collector():
    # a measure holds its decomposition and no stream refers back to it, so
    # reference counting frees a classification's decomposition, and the
    # base decomposition behind a tower's base measures, with the streams'
    # atoms, rays and Perron roots read
    enabled = gc.isenabled()
    gc.disable()
    try:
        towers = prefixed = 0
        for base, amb in _tower_pairs(random.Random(31), n=12):
            cls = classify_measures(base)
            ref = weakref.ref(cls.decomposition)
            del cls
            assert ref() is None
            try:
                results = classify_subdiagram(base, amb)
            except NoFiniteBaseMeasure:
                continue
            for e in (r.base_measure for r in results):
                e.atom, e.ray
            dec = results[0].base_measure.decomposition
            prefixed += dec.valid_from > 0
            ref = weakref.ref(dec)
            del dec, results, e
            assert ref() is None
            towers += 1
    finally:
        if enabled:
            gc.enable()
    assert towers >= 10 and prefixed >= 3


def test_cover_stream_that_is_not_a_base_stream():
    # b is an unprimed cover symbol that only the primed part reaches: the
    # cover's stream 1 is {b}, which is no base stream, so the base's one
    # stream {a} is finite although {b} reaches it in the cover with equal
    # growth.  Its tower is infinite, dominated by that stream.
    def pair(prefix_entries):
        first = GenMatrix(("a",), ("a", "b"), prefix_entries)
        cycle = GenMatrix(("a", "b"), ("a", "b"),
                          {("a", "a"): 1, ("b", "a"): 1, ("b", "b"): 1})
        return EventuallyPeriodic([first], [cycle])

    base = pair({("a", "a"): 1})
    amb = pair({("a", "a"): 1, ("a", "b"): 1})
    [e] = classify_measures(base).measures
    assert e.verdict.is_yes() and e.stream.members_at(1) == {"a"}
    cover = frobenius.stream_decompose(
        reduce_sequence(canonical_cover(base, amb).cover)[0])
    assert cover.streams[0].members_at(1) == {"b"}
    [r] = classify_subdiagram(base, amb)
    assert r.base_measure.stream.index == 1
    assert r.base_measure.verdict.witness == e.verdict.witness
    assert r.verdict.is_no()
    assert r.witness["dominating_stream"] == 1
    assert r.witness["cover_stream"] == 2


def test_cover_names_never_collide_with_ambient_names():
    # "a'" is an ambient symbol, so the primed copies end in two or more
    # primes; the answers are those of the same pair named a, b
    def pair(names):
        return (constant([[1, 1], [0, 1]], names),
                constant([[2, 1], [0, 1]], names))

    def answers(names):
        base, amb = pair(names)
        [e] = [m for m in classify_measures(base).measures
               if m.verdict.is_yes()]
        return ([(r.verdict.value, r.witness["cover_stream"],
                  r.witness["dominating_stream"])
                 for r in classify_subdiagram(base, amb)],
                is_distinguished(e.ray, base, amb).value)

    assert answers(["a", "a'"]) == answers(["a", "b"]) == ([("no", 2, 1)],
                                                          "no")
    assert canonical_cover(*pair(["a", "a'"])).cover.alphabet(0) == (
        "a''", "a'''", "a", "a'")
    assert canonical_cover(*pair(["a", "b"])).cover.alphabet(0) == (
        "a'", "b'", "a", "b")


def test_extreme_count_builds_no_ray(monkeypatch):
    # count-ergodic reads verdicts only, so it builds no ray, and on
    # eventually periodic input it runs no depth-limited simplex
    calls = collections.Counter()

    def counting(name):
        fn = getattr(cones, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("exact_ray", "stream_base_ray", "eigvec_sequences",
                 "simplex_image"):
        monkeypatch.setattr(cones, name, counting(name))
    got = {name: cones.extreme_count(gallery.EXAMPLES[name]().seq, 4)
           for name in ("chacon", "seven-matrix", "three-cycle",
                        "golden-mean")}
    assert not calls, calls
    assert got == {
        "chacon": (2, {"exact": 2, "liminf_bound": 2, "streams": 2}),
        "seven-matrix": (2, {"exact": 2, "liminf_bound": 4, "streams": 3}),
        "three-cycle": (3, {"exact": 3, "liminf_bound": 3, "streams": 3}),
        "golden-mean": (1, {"exact": 1, "liminf_bound": 2, "streams": 1}),
    }


def test_classification_of_a_window_is_the_window_itself():
    # a window is decomposed as it is, not reduced first, so the
    # classification's sequence is the window and its one stream is the
    # one stream_decompose finds
    window = Truncated([GenMatrix.from_lists(
        ("a", "b", "c"), ("a", "b", "c"),
        [[1, 0, 0], [1, 0, 0], [0, 1, 0]])])
    cls = classify_measures(window)
    assert cls.seq is window
    assert [e.stream.members_at(2) for e in cls.measures] == \
        [s.members_at(2) for s in frobenius.stream_decompose(window).streams] \
        == [{"a"}]
    (e,) = cls.measures
    assert not e.verdict.is_decided() and e.verdict.horizon == 1
    assert e.ray.ray0 == {a: Fraction(1, 3) for a in "abc"}


def _random_stationary(rng, dim):
    """A dim x dim matrix with mostly zero entries, often upper
    triangular, so that its classes are small and reach one another."""
    upper = rng.random() < 0.5
    return [[0 if upper and j < i else rng.choice([0, 0, 0, 1, 1, 2, 3])
             for j in range(dim)] for i in range(dim)]


def _planted_blocks(rng):
    """Two to four diagonal blocks, chained upper triangular with random
    links, then symbols shuffled.  A block is a random positive one, an
    imprimitive cycle of period 2 or 3 with weights, or a copy of an
    earlier block (a planted tie)."""
    blocks = []
    for _ in range(rng.randint(2, 4)):
        kind = rng.random()
        if blocks and kind < 0.35:
            blocks.append(rng.choice(blocks))
        elif kind < 0.7:
            p = rng.randint(2, 3)
            blocks.append([[rng.randint(1, 3) if j == (i + 1) % p else 0
                            for j in range(p)] for i in range(p)])
        else:
            d = rng.randint(1, 2)
            blocks.append([[rng.randint(1, 3) for _ in range(d)]
                           for _ in range(d)])
    n = sum(len(b) for b in blocks)
    a = [[0] * n for _ in range(n)]
    at = 0
    for x, b in enumerate(blocks):
        for i, row in enumerate(b):
            a[at + i][at:at + len(b)] = row
            for j in range(at + len(b), n):
                if rng.random() < 0.3:
                    a[at + i][j] = 1
        at += len(b)
    perm = list(range(n))
    rng.shuffle(perm)
    return [[a[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def test_stationary_verdicts_follow_frobenius_victory():
    """For constant(A), a class of period p gives p measures, Finite
    exactly when its Perron root is strictly larger than that of every
    other nontrivial class that reaches it (`frobenius_victory_counts`,
    which reads the raw matrix only).  The Finite and Infinite counts of
    classify_measures agree on seeded random matrices (dim <= 6) and on
    block matrices with planted ties and imprimitive cycle blocks."""
    rng = random.Random(1985)
    cases = [_random_stationary(rng, rng.randint(1, 6)) for _ in range(240)]
    cases += [_planted_blocks(rng) for _ in range(120)]
    seen = collections.Counter()
    for a in cases:
        finite, infinite, details = frobenius_victory_counts(a)
        cls = classify_measures(constant(a, labels(len(a))))
        assert (cls.finite_count, cls.infinite_count) == (finite, infinite), a
        seen["infinite"] += infinite
        seen["ties"] += sum(tied for _, _, tied in details)
        seen["imprimitive"] += sum(p > 1 for p, _, _ in details)
        seen["cases"] += bool(details)
    assert seen["cases"] >= 300 and seen["infinite"] >= 300
    assert seen["ties"] >= 100 and seen["imprimitive"] >= 150


def test_eventually_periodic_counts_follow_the_telescoped_theorem():
    """An eventually periodic sequence, telescoped at its prefix and
    period, is stationary, so the classical Frobenius-Victory theorem on
    its period product, cut to the symbols that level 0 reaches, gives its
    Finite and Infinite counts (`telescoped_victory_counts`, which reads
    the raw, unreduced matrices only).  extreme_count's exact count and
    the rest of its streams agree on seeded random sequences, with
    Infinite classes, tied roots and imprimitive classes among them, and
    on the gallery."""
    rng = random.Random(2024)
    seqs = [random_ep_sequence(rng, max_dim=6, max_period=3, max_prefix=2,
                               max_entry=2) for _ in range(300)]
    seen = collections.Counter()
    for seq in seqs:
        finite, infinite, details = telescoped_victory_counts(seq)
        count, info = cones.extreme_count(seq, 0)
        assert (count, info["streams"] - count) == (finite, infinite)
        seen["infinite"] += infinite > 0
        seen["ties"] += any(tied for _, _, tied in details)
        seen["imprimitive"] += any(p > 1 for p, _, _ in details)
    assert seen["infinite"] >= 15 and seen["ties"] >= 10
    assert seen["imprimitive"] >= 4
    want = {"dyadic": (1, 0), "triadic": (1, 0), "chacon": (2, 0),
            "ics-cover": (1, 1), "three-cycle": (3, 0),
            "seven-matrix": (2, 1), "golden-mean": (1, 0)}
    for name, counts in want.items():
        seq = gallery.EXAMPLES[name]().seq
        count, info = cones.extreme_count(seq, 0)
        assert telescoped_victory_counts(seq)[:2] == counts == (
            count, info["streams"] - count), name


def test_classify_measures_builds_every_ray():
    # the rays are part of the call, so `adic classify` and the classify
    # workload time them inside it
    seqs = []
    for make in gallery.EXAMPLES.values():
        obj = make()
        seqs += ([obj.base_seq, obj.ambient.seq] if hasattr(obj, "base_seq")
                 else [obj.seq])
    rng = random.Random(19)
    seqs += [random_reduced_sequence(rng) for _ in range(30)]
    built = 0
    for seq in seqs:
        for e in classify_measures(seq).measures:
            assert "ray" in vars(e), e
            built += 1
    assert built >= 40, built


# ---------------------------------------------------------------------------
# central measures: additivity and initial-segment invariance


def _measure_additive(seq, measure, depth):
    for upto in range(1, depth):
        masses = {}
        for w in enumerate_paths(seq, upto):
            masses.setdefault(tuple(w[:-1]), Fraction(0))
            masses[tuple(w[:-1])] += measure.cylinder_mass(list(w))
        for prefix, total in masses.items():
            assert total == measure.cylinder_mass(list(prefix))


def _measure_fc_invariant(seq, measure, depth):
    for upto in range(1, depth):
        by_end = {}
        for w in enumerate_paths(seq, upto):
            by_end.setdefault(w[-1][2], set()).add(
                measure.cylinder_mass(list(w)))
        for vals in by_end.values():
            assert len(vals) == 1


def test_central_measure_additive_and_invariant_random():
    rng = random.Random(31)
    done = 0
    for _ in range(25):
        seq = random_reduced_sequence(rng, max_dim=3)
        cls = classify_measures(seq)
        for e in cls.measures:
            if not e.finite or e.ray is None:
                continue
            mu = CentralMeasure(cls.seq, e.ray)
            _measure_additive(cls.seq, mu, 4)
            _measure_fc_invariant(cls.seq, mu, 4)
            done += 1
    assert done >= 10


# ---------------------------------------------------------------------------
# stationary Parry measures


def test_parry_full_two_shift():
    m = constant([[1, 1], [1, 1]], ["0", "1"]).matrix(0)
    for n in range(1, 5):
        out = parry_measure_stationary(m, "0" * (n + 1))
        lo, hi = out["invariant"]
        assert lo <= Fraction(1, 2 ** (n + 1)) <= hi
        clo, chi = out["central"]
        assert clo <= Fraction(1, 2 ** (n + 1)) <= chi


def test_parry_forbidden_word_is_zero():
    m = constant([[1, 1], [1, 0]], ["0", "1"]).matrix(0)
    out = parry_measure_stationary(m, "110")
    assert out["invariant"] == (Fraction(0), Fraction(0))


@pytest.mark.parametrize("word", ["", "9", "09", ["0", "1", "2"]])
def test_parry_rejects_a_word_that_is_not_over_the_states(word):
    # an empty word, or one with a symbol that is no state, is malformed:
    # it is neither a cylinder nor a forbidden word of mass 0
    m = constant([[1, 1], [1, 0]], ["0", "1"]).matrix(0)
    with pytest.raises(MalformedWord):
        parry_measure_stationary(m, word)

import copy
import random
from fractions import Fraction

import pytest
import sympy

from adic import cones, gallery
from adic.errors import (DepthExceeded, NonPositiveEntry, NotPrimitive,
                         ShapeMismatch)
from adic.matrixseq import GenMatrix, Truncated, constant, partial_product
from adic.frobenius import stream_decompose
from adic.measures import classify_measures
from adic.vershik import SubdiagramEmbedding
from adic.cones import (
    EigvecSeqApprox,
    PerronRoot,
    eigvec_sequences,
    in_convex_hull,
    simplex_image,
    extreme_count,
    periodic_pf,
    exact_ray,
    stream_base_ray,
    stream_period_eigenvalue,
    DEFAULT_EPS,
)

from conftest import (approx_check_reference, exact_check_reference, labels,
                      periodic_pf_fraction, phase1_feasible_fraction,
                      random_ep_sequence, random_reduced_sequence,
                      simplex_image_reference, solve_kernel_fraction)


def test_in_convex_hull_exact():
    pts = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    mid = (Fraction(1, 2), Fraction(1, 2))
    out = (Fraction(2), Fraction(-1))
    assert in_convex_hull(mid, pts)
    assert not in_convex_hull(out, pts)


def _random_system(rng):
    """A random system A*lam = b of up to 6x8, and whether its entries are
    all integers.  Half the right-hand sides are A*lam0 for a random lam0
    >= 0, so feasible and infeasible systems both occur."""
    m, n = rng.randint(1, 6), rng.randint(1, 8)
    integral = rng.random() < 0.5

    def entry():
        if rng.random() < 0.3:
            return 0
        if integral:
            return rng.randint(-4, 4)
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))

    rows = [[entry() for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.5:
        lam = [rng.choice([0, 0, 1, 2, Fraction(1, 3)]) for _ in range(n)]
        if integral:
            lam = [int(v) for v in lam]
        rhs = [sum(a * x for a, x in zip(row, lam)) for row in rows]
    else:
        rhs = [entry() for _ in range(m)]
    return rows, rhs, integral


def test_phase1_kernel_matches_fraction_oracle(monkeypatch):
    """The integer kernel against the Fraction simplex it replaced, on
    5000 random systems: the same verdict, the same pivots on integer
    input, and every division of every pivot exact."""
    pivots = []
    original = cones._pivot

    def checked_pivot(tab, r, c, den):
        prow = tab[r]
        for i, row in enumerate(tab):
            if i != r:
                assert all((prow[c] * a - row[c] * b) % den == 0
                           for a, b in zip(row, prow))
        pivots.append((r, c, den))
        original(tab, r, c, den)

    monkeypatch.setattr(cones, "_pivot", checked_pivot)
    rng = random.Random(61)
    verdicts = {True: 0, False: 0}
    divided = 0
    for _ in range(5000):
        rows, rhs, integral = _random_system(rng)
        pivots.clear()
        got = cones._phase1_feasible(rows, rhs)
        expected_pivots = []
        assert got == phase1_feasible_fraction(rows, rhs, expected_pivots), \
            (rows, rhs)
        if integral:
            assert [(r, c) for r, c, _ in pivots] == expected_pivots
        verdicts[got] += 1
        divided += sum(1 for _, _, den in pivots if den != 1)
    assert verdicts[True] >= 1000 and verdicts[False] >= 1000, verdicts
    assert divided >= 3000, divided


def _random_kernel_system(rng):
    """A random solve_kernel input: shuffled labels, a nonnegative Q that
    may have entries off those labels, and lam.  Half the systems are
    Q = lam*I + U*V with U*V of rank below the dimension, so lam is an
    eigenvalue.  A quarter are row-stochastic on the labels, in Fractions
    whose denominators differ from row to row, with lam = 1.  The rest are
    integer Q with a random Fraction lam."""
    n = rng.randint(1, 6)
    labels_ = [str(j) for j in range(n)]
    rng.shuffle(labels_)
    everything = labels_ + (["x"] if rng.random() < 0.3 else [])
    kind = rng.choice(["singular", "singular", "stochastic", "random"])
    r = rng.randint(0, n - 1) if kind == "singular" else n
    U = [[rng.choice([0, 0, 1, 2]) for _ in range(r)] for _ in everything]
    V = [[rng.choice([0, 0, 1, 2]) for _ in everything] for _ in range(r)]
    if kind == "singular":
        lam = rng.choice([0, 1, 2, 3, Fraction(2), Fraction(0)])
    elif kind == "stochastic":
        lam = 1
    else:
        lam = Fraction(rng.randint(0, 9), rng.randint(1, 4))
    entries = {}
    for i, a in enumerate(everything):
        row = {b: sum(U[i][t] * V[t][j] for t in range(r))
               for j, b in enumerate(everything)}
        if a in labels_:
            row[a] += int(lam) if kind == "singular" else rng.randint(0, 2)
        if kind == "stochastic":
            total = sum(row[b] for b in labels_)
            if not total:
                row[a], total = 1, 1
            row = {b: Fraction(v, total) for b, v in row.items()}
        entries.update(((a, b), v) for b, v in row.items() if v)
    return labels_, entries, lam


def test_solve_kernel_matches_fraction_gauss_jordan(monkeypatch):
    """The fraction-free kernel against the Fraction Gauss-Jordan it
    replaced, on 5000 random systems: repr-equal bases, and every division
    of every pivot exact."""
    original = cones._pivot

    def checked_pivot(tab, r, c, den):
        prow = tab[r]
        for i, row in enumerate(tab):
            if i != r:
                assert all((prow[c] * a - row[c] * b) % den == 0
                           for a, b in zip(row, prow))
        original(tab, r, c, den)

    monkeypatch.setattr(cones, "_pivot", checked_pivot)
    rng = random.Random(83)
    nontrivial = 0
    for _ in range(5000):
        labels_, entries, lam = _random_kernel_system(rng)
        got = cones.solve_kernel(labels_, entries, lam)
        assert repr(got) == repr(solve_kernel_fraction(labels_, entries, lam))
        nontrivial += bool(got)
    assert nontrivial >= 2000, nontrivial


def test_simplex_image_matches_fraction_reference(monkeypatch):
    """Byte-identical to the normalized-Fraction construction it replaced:
    the same points (values, key order, types) and provenance lists in the
    same order, at depths 0, 1, 5 and P+8L."""
    inside = []
    original = cones.in_convex_hull

    def counted(x, points):
        inside.append(original(x, points))
        return inside[-1]

    monkeypatch.setattr(cones, "in_convex_hull", counted)
    rng = random.Random(67)
    seqs = list(_gallery_sequences())
    seqs += [random_ep_sequence(rng, max_dim=8) for _ in range(40)]
    seqs += [Truncated([random_ep_sequence(rng).matrix(0)])]
    for seq in seqs:
        depths = [0]
        if seq.horizon is None:
            depths += [1, 5, seq.prefix_len + 8 * seq.period]
        for depth in depths:
            expected = simplex_image_reference(seq, 0, depth)
            assert repr(simplex_image(seq, 0, depth)) == repr(expected)
            assert len(simplex_image(seq, 0, depth)) == len(expected)
    # the pruning is exercised: many columns are not extreme
    assert inside.count(True) >= 60, inside.count(True)


def test_simplex_image_dedups_directions():
    seq = constant([[2]], ["0"])
    img = simplex_image(seq, 0, 5)
    assert len(img) == 1


def test_raw_extreme_count_triangular():
    seq = constant([[3, 1], [0, 2]], ["0", "1"])
    assert len(simplex_image(seq, 0, 6)) == 2


def test_extreme_count_exact_ep():
    count, info = extreme_count(constant([[1, 1], [0, 3]], ["0", "1"]), 8)
    assert count == 2
    assert info["exact"] == 2
    count2, _ = extreme_count(constant([[3, 1], [0, 2]], ["0", "1"]), 8)
    assert count2 == 1  # only one finite ergodic measure


def test_extreme_count_owns_the_depth_rule():
    # a window's depth is capped at horizon - 1, and a negative depth is a
    # named error rather than an empty product range
    window = Truncated([GenMatrix.from_lists(
        ("0", "1"), ("0", "1"), [[1, 1], [1, 0]])] * 3)
    want = extreme_count(window, 2)
    assert want[1]["depth"] == 2
    for depth in (3, 4, 64):
        assert extreme_count(window, depth) == want
    for seq in (window, constant([[1, 1], [0, 3]], ["0", "1"])):
        with pytest.raises(ShapeMismatch, match="depth >= 0, got -1"):
            extreme_count(seq, -1)


def test_extreme_count_positive_primitive_is_one():
    count, _ = extreme_count(constant([[2, 1], [1, 1]], ["0", "1"]), 4)
    assert count == 1


def test_extreme_count_bounded_by_liminf_random():
    rng = random.Random(3)
    for _ in range(30):
        seq = random_reduced_sequence(rng)
        count, info = extreme_count(seq, 6)
        assert count <= seq.liminf_alphabet_size()
        for d in range(1, 6):
            assert len(simplex_image(seq, 0, d)) <= max(
                len(seq.alphabet(i)) for i in range(d + 1))


def test_periodic_pf_integer_eigenvalue():
    pf = periodic_pf(constant([[6]], ["0"]).matrix(0))
    lo, hi = pf["eigenvalue"]
    assert lo <= 6 <= hi
    assert hi - lo <= DEFAULT_EPS


def test_periodic_pf_golden_mean():
    pf = periodic_pf(constant([[1, 1], [1, 0]], ["0", "1"]).matrix(0))
    lo, hi = pf["eigenvalue"]
    # phi is the positive root of x^2 = x + 1
    assert lo * lo < lo + 1
    assert hi * hi > hi + 1
    assert hi - lo <= DEFAULT_EPS * lo
    box = pf["eigenvector_box"]
    # eigenvector ratio w0/w1 = phi: w0 > w1 strictly
    assert box["0"][0] > box["1"][1]


def _random_square(rng, d):
    rows = labels(d)
    entries = {(a, b): v for a in rows for b in rows
               for v in [rng.choice([0, 0, 1, 1, 2, 3])] if v}
    return GenMatrix(rows, rows, entries)


def test_periodic_pf_matches_fraction_reference():
    """periodic_pf reads its positivity power from is_primitive and runs
    the Collatz-Wielandt bounds on integer powers m**n * 1; the reference
    powers m by its own loop and normalizes Fraction vectors.  The dicts
    are repr-equal, and refused inputs raise the same error."""
    rng = random.Random(53)
    primitive, refused, powers = 0, 0, set()
    while primitive < 300:
        m = _random_square(rng, rng.randrange(1, 6))
        try:
            want = periodic_pf_fraction(m, cones.DEFAULT_EPS)
        except NotPrimitive as e:
            with pytest.raises(NotPrimitive, match="^%s$" % e):
                periodic_pf(m)
            refused += 1
            continue
        assert repr(periodic_pf(m)) == repr(want)
        primitive += 1
        powers.add(want["positivity_power"])
    assert refused >= 30 and len(powers) >= 3, (refused, powers)
    negative = GenMatrix(("0",), ("0",))
    negative.entries = {("0", "0"): -1}
    for m in (GenMatrix(("0", "1"), ("0",), {("0", "0"): 1}), negative):
        with pytest.raises(NonPositiveEntry) as want:
            periodic_pf_fraction(m, cones.DEFAULT_EPS)
        with pytest.raises(NonPositiveEntry, match="^%s$" % want.value):
            periodic_pf(m)


def _one_entry_changed(ray, rng):
    """A copy of the ray with one value raised by 1 at a level its check
    reads."""
    changed = copy.copy(ray)
    if isinstance(ray, EigvecSeqApprox):
        changed.levels = levels = [dict(v) for v in ray.levels]
    else:
        changed._prefix = [dict(v) for v in ray._prefix]
        changed._base = [dict(v) for v in ray._base]
        levels = changed._prefix + changed._base
    level = rng.choice([v for v in levels if v])
    a = rng.choice(sorted(level))
    level[a] += 1
    return changed


def test_relation_checks_match_their_references():
    """ExactEigvec.check and EigvecSeqApprox.check run one relation loop;
    on the rays of classify_measures, and on copies with one entry
    changed, each gives its reference loop's answer.  The base rays of
    infinite streams are checked on their stream's rows only."""
    rng = random.Random(59)
    counts = {"exact": 0, "approx": 0, "restricted": 0, "rejected": 0}
    while (counts["exact"] < 100 or counts["approx"] < 50
           or counts["restricted"] < 30):
        seq = random_ep_sequence(rng, upper=rng.random() < 0.5)
        cls = classify_measures(seq)
        for e in cls.measures:
            if e.ray is None:
                continue
            for ray in (e.ray, _one_entry_changed(e.ray, rng)):
                if isinstance(ray, EigvecSeqApprox):
                    want = approx_check_reference(ray, cls.seq)
                    assert ray.check(cls.seq) == want
                else:
                    want = exact_check_reference(ray)
                    assert ray.check() == want
                if ray is e.ray:
                    assert want
                else:
                    counts["rejected"] += not want
            if isinstance(e.ray, EigvecSeqApprox):
                counts["approx"] += 1
            else:
                counts["exact"] += 1
                counts["restricted"] += e.ray.rows_at is not None
    assert counts["rejected"] >= 200, counts


def test_stream_period_eigenvalues_triangular():
    seq = constant([[3, 1], [0, 2]], ["0", "1"])
    dec = stream_decompose(seq)
    lams = sorted(stream_period_eigenvalue(s) for s in dec.streams)
    assert lams == [Fraction(2), Fraction(3)]


def test_exact_ray_satisfies_relations():
    seq = constant([[1, 1], [0, 3]], ["0", "1"])
    dec = stream_decompose(seq)
    # the stream containing symbol "1" carries the nonatomic measure
    target = [s for s in dec.streams
              if "1" in s.members_at(dec.valid_from)][0]
    ray = exact_ray(dec, target)
    assert ray.check()
    assert ray.ray0 == {"0": Fraction(1, 3), "1": Fraction(2, 3)}
    assert ray.eigenvalue == Fraction(3)


def test_stream_base_ray_supported_on_stream():
    seq = constant([[3, 1], [0, 2]], ["0", "1"])
    dec = stream_decompose(seq)
    target = [s for s in dec.streams
              if "1" in s.members_at(dec.valid_from)][0]
    ray = stream_base_ray(dec, target)
    assert ray.check()
    assert ray.ray0 == {"0": Fraction(0), "1": Fraction(1)}


def test_exact_rays_random_check():
    rng = random.Random(41)
    checked = 0
    for _ in range(30):
        seq = random_reduced_sequence(rng, max_dim=3)
        dec = stream_decompose(seq)
        for s in dec.streams:
            lam = stream_period_eigenvalue(s)
            if lam is None:
                continue  # irrational eigenvalue: no rational ray
            try:
                ray = exact_ray(dec, s)
            except Exception:
                continue
            assert ray.check()
            checked += 1
    assert checked >= 10


def _gallery_sequences():
    for name in sorted(gallery.EXAMPLES):
        obj = gallery.EXAMPLES[name]()
        if isinstance(obj, SubdiagramEmbedding):
            yield obj.base_seq
            yield obj.ambient.seq
        else:
            yield obj.seq


def test_eigvec_sequences_match_product_columns():
    """Reference: level i of each sequence is column b of the product of
    levels i..depth, scaled so that level 0 sums to 1.  A read past level
    depth + 1 is a DepthExceeded, as every depth-limited read is."""
    rng = random.Random(29)
    seqs = list(_gallery_sequences())
    seqs += [random_ep_sequence(rng, max_dim=5) for _ in range(15)]
    seqs += [Truncated([random_ep_sequence(rng).matrix(0)])]
    for seq in seqs:
        depths = (0,) if seq.horizon == 1 else (0, 1, 5)
        for depth in depths:
            evs = eigvec_sequences(seq, depth)
            assert [ev.provenance for ev in evs] == \
                [p for _, p in simplex_image_reference(seq, 0, depth)]
            for ev in evs:
                b = ev.provenance[0]
                top = partial_product(seq, 0, depth)
                scale = Fraction(1, sum(top.entry(a, b)
                                        for a in seq.alphabet(0)))
                want = [{a: scale * partial_product(seq, i, depth).entry(a, b)
                         for a in seq.alphabet(i)}
                        for i in range(depth + 1)]
                want.append({a: (scale if a == b else Fraction(0))
                             for a in seq.alphabet(depth + 1)})
                assert repr(ev.levels) == repr(want)
                assert ev.check(seq)
                assert ev.value(depth + 1) == want[-1]
                with pytest.raises(DepthExceeded,
                                   match="beyond defect %d" % depth):
                    ev.value(depth + 2)


def test_eigvec_sequences_make_only_the_simplex_product(mul_calls):
    seq = constant([[1, 1, 0], [0, 2, 1], [1, 0, 1]], labels(3))
    for depth in (1, 6):
        mul_calls.clear()
        assert eigvec_sequences(seq, depth)
        assert len(mul_calls) == depth


def test_perron_root_is_the_largest_real_root():
    """Reference: the evalf-50 maximum over sympy's real roots, and sympy's
    minimal_polynomial of it.  The scaled copies make sympy spell the
    root as c*CRootOf(g, i)."""
    rng = random.Random(53)
    arrays = [
        [[5]],
        [[0, 1], [0, 0]],                     # nilpotent: 0 repeated
        [[2, 0], [0, 2]],                     # repeated rational root
        [[1, 1], [1, 0]],                     # irrational root
        [[1, 1, 0, 0], [1, 0, 0, 0],          # (x^2-x-1)^2: repeated
         [0, 0, 1, 1], [0, 0, 1, 0]],         # irrational root
        [[3, 1, 0], [0, 2, 1], [0, 0, 3]],    # reducible charpoly
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],    # one real root of x^3-1
    ]
    for _ in range(40):
        d = rng.randrange(1, 5)
        block = [[rng.randrange(4) for _ in range(d)] for _ in range(d)]
        if rng.random() < 0.3:
            # block-diagonal doubling repeats every root
            block = [row + [0] * d for row in block] + \
                [[0] * d + row for row in block]
        arrays.append(block)
    x = sympy.Symbol("x")
    irrational = 0
    for base in arrays:
        for scale in (1, 2, 3, 6):
            arr = [[scale * v for v in row] for row in base]
            d = len(arr)
            poly = sympy.Matrix(arr).charpoly()
            roots = sympy.Poly(poly.as_expr(), poly.gens[0]).real_roots()
            want = max(roots, key=lambda r: r.evalf(50))
            root = PerronRoot(GenMatrix.from_lists(labels(d), labels(d), arr))
            if want.is_Rational:
                assert root.value == want
                assert root.minpoly == (want.q, -want.p)
            else:
                irrational += 1
                assert root.value is None
                minpoly = sympy.minimal_polynomial(want, x, polys=True)
                assert list(root.minpoly) == minpoly.all_coeffs()
            p = sympy.Poly(root.minpoly, x)
            value = want.evalf(50)
            if root.bounds is not None:
                lo, hi = (sympy.Rational(v.numerator, v.denominator)
                          for v in root.bounds)
                assert lo <= value <= hi
            for steps in (0, 30):
                for _ in range(steps):
                    root.refine()
                lo, hi = (sympy.Rational(v.numerator, v.denominator)
                          for v in root.interval)
                assert lo <= value <= hi
                assert p.count_roots(lo, hi) == 1
    assert irrational >= 100, irrational


def test_perron_root_reads_a_point_bound_without_sympy(monkeypatch):
    # when the Collatz-Wielandt bounds meet, q x = lo x with x > 0, and
    # the root is that Fraction; sympy is not reached at all
    def no_sympy(*args, **kwargs):
        raise AssertionError("sympy.Matrix called")

    monkeypatch.setattr(sympy, "Matrix", no_sympy)
    (stream,) = stream_decompose(gallery.odometer([2, 3]).seq).streams
    cases = [
        (GenMatrix.from_lists(labels(2), labels(2), [[1, 1], [1, 1]]), 2),
        (GenMatrix.from_lists(labels(2), labels(2), [[0, 2], [2, 0]]), 2),
        (stream.period_product(), 6),
        # constant row sums 3
        (GenMatrix.from_lists(labels(3), labels(3),
                              [[1, 2, 0], [0, 1, 2], [3, 0, 0]]), 3),
    ]
    for q, want in cases:
        root = PerronRoot(q)
        assert root.bounds == (want, want)
        assert all(type(v) is int and v > 0 for v in root.vector.values())
        assert (root.value, root.minpoly, root.interval) == \
            (Fraction(want), (1, -want), (want, want))
        assert type(root.value) is Fraction
    monkeypatch.undo()

    calls = []
    charpoly = sympy.matrices.matrixbase.MatrixBase.charpoly

    def counting_charpoly(self, *args, **kwargs):
        calls.append(self)
        return charpoly(self, *args, **kwargs)

    monkeypatch.setattr(sympy.matrices.matrixbase.MatrixBase, "charpoly",
                        counting_charpoly)
    golden = PerronRoot(GenMatrix.from_lists(labels(2), labels(2),
                                             [[1, 1], [1, 0]]))
    lo, hi = golden.bounds
    assert lo < hi and not calls
    assert golden.minpoly == (1, -1, -1) and len(calls) == 1
    assert golden.value is None and len(calls) == 1

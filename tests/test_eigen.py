"""The exact eigen layer: `cones.compare_perron` (the one Perron-root
comparison, behind `measures.compare_streams` and
`gallery.nested_rotation`) and the one ray walk behind `cones.exact_ray`
and `cones.stream_base_ray`."""

import random
from fractions import Fraction

import mpmath
import pytest
import sympy

from adic import cones, gallery
from adic.cones import (
    ExactEigvec,
    compare_perron,
    exact_ray,
    solve_kernel,
    stream_base_ray,
    stream_period_eigenvalue,
)
from adic.errors import InternalError, NotNested
from adic.frobenius import stream_decompose
from adic.matrixseq import (
    GenMatrix,
    constant,
    from_int_matrices,
    partial_product,
    reduce_sequence,
)
from adic.measures import canonical_cover, classify_measures, compare_streams
from adic.vershik import SubdiagramEmbedding

from conftest import labels, random_nested_pair, random_reduced_sequence

DIGITS = 200


def _matrix(arr):
    return GenMatrix.from_lists(labels(len(arr)), labels(len(arr)), arr)


def _block_diag(*arrs):
    n = sum(len(a) for a in arrs)
    out = [[0] * n for _ in range(n)]
    at = 0
    for a in arrs:
        for i, row in enumerate(a):
            out[at + i][at:at + len(a)] = row
        at += len(a)
    return out


def _reference_root(arr):
    """The Perron root to 200 digits: the largest real root over the
    irreducible factors of the charpoly, each found by mpmath.polyroots
    after scaling x = s*y with s the Cauchy bound, so the y lie in the
    unit disc."""
    x = sympy.Symbol("x")
    poly = sympy.Matrix(arr).charpoly(x)
    best = mpmath.mpf(0)
    with mpmath.workdps(DIGITS + 20):
        for factor, _ in sympy.factor_list(poly.as_expr(), x)[1]:
            coeffs = [mpmath.mpf(int(c))
                      for c in sympy.Poly(factor, x).all_coeffs()]
            s = 1 + max(abs(c / coeffs[0]) for c in coeffs[1:])
            ys = mpmath.polyroots([c / s ** i for i, c in enumerate(coeffs)],
                                  maxsteps=200, extraprec=100)
            for y in ys:
                if abs(mpmath.im(y)) < mpmath.mpf(10) ** -(DIGITS // 2):
                    best = max(best, s * mpmath.re(y))
    return best


def _check_witness(sign, wit, arr_a, arr_b):
    """Re-verify a compare_perron witness against the 200-digit roots."""
    ra, rb = _reference_root(arr_a), _reference_root(arr_b)
    tol = mpmath.mpf(10) ** -(DIGITS - 50)
    with mpmath.workdps(DIGITS + 20):
        want = 0 if abs(ra - rb) < tol else (1 if ra > rb else -1)
        assert sign == want
        if "lambda" in wit:
            assert wit["exact"] is True
            la, lb = wit["lambda"]
            assert isinstance(la, Fraction) and isinstance(lb, Fraction)
            assert abs(mpmath.mpf(la.numerator) / la.denominator - ra) < tol
            assert abs(mpmath.mpf(lb.numerator) / lb.denominator - rb) < tol
            return "rational"
        x = sympy.Symbol("x")
        ca, cb = wit["minpoly"]
        for coeffs, arr, root in ((ca, arr_a, ra), (cb, arr_b, rb)):
            assert all(isinstance(c, int) for c in coeffs) and coeffs[0] > 0
            # the minimal polynomial divides the charpoly and has the root
            p = sympy.Poly(coeffs, x)
            assert p.is_irreducible
            assert sympy.rem(sympy.Matrix(arr).charpoly(x).as_expr(),
                             p.as_expr(), x) == 0
            assert abs(mpmath.polyval(coeffs, root)) < tol * 10 ** 20
        if wit.get("equal"):
            assert sign == 0 and ca == cb
            return "equal"
        assert ca != cb and sign != 0
        ia, ib = wit["intervals"]
        for (lo, hi), root in ((ia, ra), (ib, rb)):
            assert isinstance(lo, Fraction) and isinstance(hi, Fraction)
            assert mpmath.mpf(lo.numerator) / lo.denominator <= root
            assert root <= mpmath.mpf(hi.numerator) / hi.denominator
        assert (ia[0] > ib[1]) if sign > 0 else (ia[1] < ib[0])
        return "intervals"


# ---------------------------------------------------------------------------
# compare_perron


def test_equal_roots_from_different_charpolys():
    # x^2-4x-4 against (x^2-4x-4)(x-1)
    a = [[0, 4], [1, 4]]
    b = _block_diag(a, [[1]])
    # 2*companion(x^3-x-1) has charpoly x^3-4x-8; the second matrix has
    # charpoly (x^3-4x-8)(x^2-x-1), whose other real roots are smaller.
    # sympy spells the two largest roots differently, as
    # 2*CRootOf(x**3 - x - 1, 0) and CRootOf(x**3 - 4*x - 8, 0).
    c = [[0, 0, 2], [2, 0, 2], [0, 2, 0]]
    d = _block_diag([[0, 0, 8], [1, 0, 4], [0, 1, 0]], [[1, 1], [1, 0]])
    for p, q, poly in ((a, b, [1, -4, -4]), (c, d, [1, 0, -4, -8])):
        for u, v in ((p, q), (q, p)):
            sign, wit = compare_perron(_matrix(u), _matrix(v))
            assert sign == 0
            assert wit == {"minpoly": [poly, poly], "equal": True}
            assert _check_witness(sign, wit, u, v) == "equal"


def test_rational_roots_keep_the_fraction_witness():
    sign, wit = compare_perron(_matrix([[1, 1], [0, 3]]), _matrix([[2]]))
    assert (sign, wit) == (1, {"lambda": [Fraction(3), Fraction(2)],
                               "exact": True})
    sign, wit = compare_perron(_matrix([[0, 1], [0, 0]]), _matrix([[0]]))
    assert (sign, wit) == (0, {"lambda": [Fraction(0), Fraction(0)],
                               "exact": True})


def test_mixed_rational_and_irrational_roots_separate():
    golden = [[1, 1], [1, 0]]
    for other, want in (([[1]], 1), ([[2]], -1), ([[0, 2], [1, 0]], 1)):
        sign, wit = compare_perron(_matrix(golden), _matrix(other))
        assert sign == want
        assert _check_witness(sign, wit, golden, other) == "intervals"
        back, _ = compare_perron(_matrix(other), _matrix(golden))
        assert back == -want


def test_close_roots_separate():
    # sqrt(10^24 + 1) and sqrt(10^24 + 2) differ from 10^12 and from each
    # other by less than 10^-12, past the first refinement
    big = 10 ** 24
    a = [[0, big + 1], [1, 0]]
    b = [[0, big + 2], [1, 0]]
    c = [[10 ** 12]]
    for u, v, want in ((a, b, -1), (b, a, 1), (a, c, 1), (c, b, -1)):
        sign, wit = compare_perron(_matrix(u), _matrix(v))
        assert sign == want
        assert _check_witness(sign, wit, u, v) == "intervals"
        lo, hi = wit["intervals"][0]
        assert hi - lo < Fraction(1, 10 ** 12)


def _random_array(rng, d):
    return [[rng.choice([0, 0, 1, 1, 2, 3]) for _ in range(d)]
            for _ in range(d)]


def test_signs_and_isolation_against_200_digits():
    rng = random.Random(61)
    kinds = {"rational": 0, "equal": 0, "intervals": 0}
    for trial in range(60):
        a = _random_array(rng, rng.randrange(1, 5))
        mode = trial % 4
        if mode == 0:
            b = _random_array(rng, rng.randrange(1, 5))
        elif mode == 1:
            # a smaller-or-equal block beside a: the Perron root is a's or
            # the block's, from a charpoly with an extra factor
            b = _block_diag(a, _random_array(rng, rng.randrange(1, 3)))
        elif mode == 2:
            # a permuted copy: equal root, equal charpoly
            perm = list(range(len(a)))
            rng.shuffle(perm)
            b = [[a[perm[i]][perm[j]] for j in range(len(a))]
                 for i in range(len(a))]
        else:
            # twice a: twice the root
            b = [[2 * v for v in row] for row in a]
        if rng.random() < 0.5:
            a, b = b, a
        sign, wit = compare_perron(_matrix(a), _matrix(b))
        kinds[_check_witness(sign, wit, a, b)] += 1
    assert all(n >= 10 for n in kinds.values()), kinds


# ---------------------------------------------------------------------------
# callers


def _compare_quadratic(t1, D1, t2, D2):
    """Sign of (t1 + sqrt(D1)) - (t2 + sqrt(D2)) in integer arithmetic
    (D1, D2 >= 0): the closed form nested_rotation used before it called
    compare_perron."""
    dt = t1 - t2
    if D1 == D2:
        return (dt > 0) - (dt < 0)
    if dt < 0 and dt * dt > D1:
        return -1
    A = dt * dt + D1 - D2
    B = 2 * dt
    if B >= 0 and A >= 0:
        return 1 if (A > 0 or B * B * D1 > 0) else 0
    if B <= 0 and A <= 0:
        return -1 if (A < 0 or B * B * D1 > 0) else 0
    lhs, rhs = (B * B * D1, A * A) if B > 0 else (A * A, B * B * D1)
    return (lhs > rhs) - (lhs < rhs)


def _continuant(ns):
    a, b, c, d = 1, 0, 0, 1
    for n in ns:
        a, b, c, d = n * a + c, n * b + d, a, b
    t = a + d
    return t, t * t - 4 * (a * d - b * c)


def test_nested_rotation_against_the_quadratic_closed_form():
    specs = [1, 2, 3, 4, [1, 2], [2, 1], [1, 3], [2, 3], [3, 1], [2, 2, 1],
             ([2], [1]), ([1], [3, 2])]
    checked = {"yes": 0, "no": 0}
    for n_spec in specs:
        for nhat_spec in specs:
            try:
                r = gallery.nested_rotation(n_spec, nhat_spec)
            except NotNested:
                continue
            np_, nc = gallery._cf_scalars(n_spec)
            hp, hc = gallery._cf_scalars(nhat_spec)
            P = max(len(np_), len(hp))
            L = r.detail["period"]
            window = range(P, P + L)
            ns = [gallery._cf_term(np_, nc, i) for i in window]
            hs = [gallery._cf_term(hp, hc, i) for i in window]
            t1, D1 = _continuant(ns)
            t2, D2 = _continuant(hs)
            assert r.detail["lambda_period_eigenvalue"] == (t1, D1)
            assert r.detail["lambda_hat_period_eigenvalue"] == (t2, D2)
            finite = ns == hs or _compare_quadratic(t2, D2, t1, D1) <= 0
            assert r.verdict.is_yes() == finite, (n_spec, nhat_spec)
            checked[r.verdict.value] += 1
    assert checked["yes"] >= 10 and checked["no"] >= 10, checked


# three streams: two golden-mean blocks (equal irrational roots) and one
# [[2,1],[1,1]] block (root (3 + sqrt 5) / 2), upper block triangular
THREE_BLOCKS = [[1, 1, 1, 0, 0, 0],
                [1, 0, 0, 0, 0, 0],
                [0, 0, 1, 1, 1, 0],
                [0, 0, 1, 0, 0, 0],
                [0, 0, 0, 0, 2, 1],
                [0, 0, 0, 0, 1, 1]]


def test_compare_streams_makes_no_equals_or_periodic_pf_call(monkeypatch):
    calls = []
    equals, periodic_pf = sympy.Expr.equals, cones.periodic_pf

    def counting_equals(self, *args, **kw):
        calls.append("equals")
        return equals(self, *args, **kw)

    def counting_periodic_pf(*args, **kw):
        calls.append("periodic_pf")
        return periodic_pf(*args, **kw)

    monkeypatch.setattr(sympy.Expr, "equals", counting_equals)
    monkeypatch.setattr(cones, "periodic_pf", counting_periodic_pf)
    dec = stream_decompose(constant(THREE_BLOCKS, labels(6)))
    by_first = {min(s.members_at(dec.valid_from)): s for s in dec.streams}
    g1, g2, big = by_first["0"], by_first["2"], by_first["4"]
    assert compare_streams(g1, g2)[0] == 0
    assert compare_streams(g2, g1)[1]["equal"] is True
    assert compare_streams(g1, big)[0] == -1
    assert compare_streams(big, g2)[0] == 1
    cls = classify_measures(constant(THREE_BLOCKS, labels(6)))
    K = cls.decomposition.valid_from
    # the second golden-mean stream is fed by the first, which grows as fast
    assert {min(m.stream.members_at(K)): m.verdict.value
            for m in cls.measures} == {"0": "yes", "2": "no", "4": "yes"}
    assert calls == []


# ---------------------------------------------------------------------------
# the ray walk


def _old_exact_ray(decomp, stream):
    """exact_ray as it was before the walk was shared."""
    seq = decomp.seq
    P, L = decomp.valid_from, decomp.lcm_period
    lam = stream_period_eigenvalue(stream)
    if lam is None:
        return None
    Q = partial_product(seq, P, P + L - 1)
    active = set(stream.members_at(P))
    for a in seq.alphabet(P):
        if stream.index in decomp.reach(P, a):
            active.add(a)
    labels_ = [a for a in seq.alphabet(P) if a in active]
    basis = solve_kernel(labels_, Q.entries, lam)
    if len(basis) != 1:
        return None
    vec = basis[0]
    if all(v <= 0 for v in vec.values()):
        vec = {a: -v for a, v in vec.items()}
    if any(v < 0 for v in vec.values()):
        return None
    v_p = {a: vec.get(a, Fraction(0)) for a in seq.alphabet(P)}
    base = [None] * L
    base[0] = v_p
    nxt = {a: v / Fraction(lam) for a, v in v_p.items()}
    for r in range(L - 1, 0, -1):
        m = seq.matrix(P + r)
        cur = {a: Fraction(x) for a, x in m.mul_vec(nxt).items()}
        base[r] = cur
        nxt = cur
    m0 = seq.matrix(P)
    chk = m0.mul_vec(base[1] if L > 1 else
                     {a: v / Fraction(lam) for a, v in v_p.items()})
    if any(Fraction(chk.get(a, 0)) != v_p.get(a, Fraction(0))
           for a in m0.rows):
        raise InternalError("eigen relation failed at the period seam")
    prefix = [None] * P
    nxt = v_p
    for k in range(P - 1, -1, -1):
        m = seq.matrix(k)
        prefix[k] = {a: Fraction(x) for a, x in m.mul_vec(nxt).items()}
        nxt = prefix[k]
    level0 = prefix[0] if P > 0 else v_p
    total = sum(level0.values())
    if total:
        scale = Fraction(1) / total
        base = [{a: v * scale for a, v in lev.items()} for lev in base]
        prefix = [{a: v * scale for a, v in lev.items()} for lev in prefix]
    return ExactEigvec(seq, P, L, lam, base, prefix, stream.index)


def _old_stream_base_ray(decomp, stream):
    """stream_base_ray as it was before the walk was shared."""
    seq = decomp.seq
    P, L = decomp.valid_from, decomp.lcm_period
    lam = stream_period_eigenvalue(stream)
    if lam is None:
        return None
    q = stream.period_product()
    basis = solve_kernel(list(q.rows), q.entries, lam)
    if len(basis) != 1:
        return None
    vec = basis[0]
    if all(v <= 0 for v in vec.values()):
        vec = {a: -v for a, v in vec.items()}
    if any(v < 0 for v in vec.values()):
        return None
    v_p = {a: vec.get(a, Fraction(0)) for a in seq.alphabet(P)}
    total = sum(v_p.values())
    v_p = {a: v / total for a, v in v_p.items()}
    base = [None] * L
    base[0] = v_p
    nxt = {a: v / Fraction(lam) for a, v in v_p.items()}
    for r in range(L - 1, 0, -1):
        m = seq.matrix(P + r)
        sub = {a: (nxt[a] if a in stream.members_at(P + r + 1) else Fraction(0))
               for a in nxt}
        cur = {a: Fraction(x) for a, x in m.mul_vec(sub).items()}
        cur = {a: (cur[a] if a in stream.members_at(P + r) else Fraction(0))
               for a in cur}
        base[r] = cur
        nxt = cur
    prefix = [None] * P
    nxt = v_p
    for k in range(P - 1, -1, -1):
        m = seq.matrix(k)
        sub = {a: (nxt[a] if a in stream.members_at(k + 1) else Fraction(0))
               for a in nxt}
        cur = {a: Fraction(x) for a, x in m.mul_vec(sub).items()}
        prefix[k] = {a: (cur[a] if a in stream.members_at(k) else Fraction(0))
                     for a in cur}
        nxt = prefix[k]
    level0 = prefix[0] if P > 0 else base[0]
    total = sum(level0.values())
    if total:
        scale = Fraction(1) / total
        base = [{a: v * scale for a, v in lev.items()} for lev in base]
        prefix = [{a: v * scale for a, v in lev.items()} for lev in prefix]
    return ExactEigvec(seq, P, L, lam, base, prefix, stream.index,
                       rows_at=stream.members_at)


# stream 2 ({"1", "2"}, eigenvalue 2, kernel vector (1, 1)) starts at
# level 1, so its base ray is zero at level 0
LATE_STREAM = from_int_matrices(
    [[[1, 1, 1]], [[1, 1, 1], [0, 1, 1], [0, 1, 1]]], cycle_from=1,
    labels=[("0",), ("0", "1", "2"), ("0", "1", "2")])


def test_base_ray_of_a_late_stream_sums_to_one_where_it_starts():
    dec = stream_decompose(LATE_STREAM)
    late = dec.streams[1]
    assert not late.members_at(0) and late.members_at(1) == {"1", "2"}
    ray = stream_base_ray(dec, late)
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    assert [ray.value(i) for i in range(3)] == [
        {"0": 0}, {"0": 0, "1": half, "2": half},
        {"0": 0, "1": quarter, "2": quarter}]
    assert ray.check()


def _ray_sequences():
    yield LATE_STREAM
    for name in sorted(gallery.EXAMPLES):
        obj = gallery.EXAMPLES[name]()
        if isinstance(obj, SubdiagramEmbedding):
            yield obj.base_seq
            yield obj.ambient.seq
        else:
            yield obj.seq
    rng = random.Random(67)
    for _ in range(40):
        yield random_reduced_sequence(rng, max_dim=4)
    for _ in range(15):
        # covers have streams that start after level 0
        base, ambient = random_nested_pair(rng, max_dim=3)
        yield canonical_cover(base, ambient).cover


def _same_ray(new, old):
    if old is None:
        assert new is None
        return
    P, L = old.valid_from, old.lcm_period
    assert (new.valid_from, new.lcm_period, new.eigenvalue,
            new.stream_index) == (P, L, old.eigenvalue, old.stream_index)
    for i in range(P + 2 * L + 1):
        assert list(new.value(i).items()) == list(old.value(i).items())
        if old.rows_at is None:
            assert new.rows_at is None
        else:
            assert new.rows_at(i) == old.rows_at(i)
    assert new.check()


def test_ray_walk_matches_the_former_two_builders():
    counts = {"exact": 0, "base": 0, "late_start": 0}
    for seq in _ray_sequences():
        red, _ = reduce_sequence(seq)
        dec = stream_decompose(red)
        for s in dec.streams:
            old = _old_exact_ray(dec, s)
            _same_ray(exact_ray(dec, s), old)
            counts["exact"] += old is not None
            old = _old_stream_base_ray(dec, s)
            _same_ray(stream_base_ray(dec, s), old)
            counts["base"] += old is not None
            counts["late_start"] += old is not None and not any(
                old.value(0).values())
    assert counts["exact"] >= 30 and counts["base"] >= 40, counts
    assert counts["late_start"] >= 5, counts


@pytest.mark.parametrize("build", [exact_ray, stream_base_ray])
def test_ray_walk_keeps_the_period_seam_guard(monkeypatch, build):
    # eigenvalue 3 with eigenvector (1, 1); (1, 2) breaks the relation
    dec = stream_decompose(constant([[2, 1], [1, 2]], labels(2)))
    (stream,) = dec.streams
    assert build(dec, stream).check()
    monkeypatch.setattr(cones, "solve_kernel", lambda labels_, entries, lam: [
        {"0": Fraction(1), "1": Fraction(2)}])
    with pytest.raises(InternalError, match="period seam"):
        build(dec, stream)

"""Cones and simplices spanned by matrix products: extreme-point counting,
eigenvector sequences of eigenvalue one, and exact Perron data.

All verdict-relevant arithmetic is exact (int or Fraction), never a float.
Convex-hull pruning is exact integer pivoting on the raw product columns:
a fraction-free phase-1 simplex decides cone membership, and only the
surviving extreme points are normalized to Fractions.  The Perron root of
a square matrix is a `PerronRoot`.  It carries exact Collatz-Wielandt
bounds from a few integer power steps, and, read on demand, its value (a
Fraction when it is rational) or its minimal polynomial and an isolating
rational interval.  Each stream holds one, built on first read.  Two
roots compare by their bounds when these are disjoint; otherwise by their
Fractions, by equal minimal polynomials, or by bisecting the intervals in
integer arithmetic until they are disjoint.  sympy runs only for a root
that a ray or such an undecided comparison reads.
"""

import functools
import math
from fractions import Fraction

from .errors import (EmptyCone, NotPrimitive, NonPositiveEntry, DepthExceeded,
                     InternalError, ShapeMismatch)
from .matrixseq import EventuallyPeriodic, partial_product, is_primitive


def normalize(vec):
    """Scale a nonnegative vector (dict) to have coordinate sum 1."""
    total = sum(vec.values())
    if total == 0:
        raise EmptyCone("cannot normalize the zero vector")
    return {k: Fraction(v, 1) / total for k, v in vec.items()}


# ---------------------------------------------------------------------------
# exact cone membership (fraction-free phase-1 simplex over int)


def in_convex_hull(x, points):
    """Exact test: does the direction of x lie in the convex hull of the
    directions of `points`?  x and the points are equal-length sequences
    of nonnegative numbers with positive sums, so this holds exactly when
    x is a nonnegative combination of the points: dividing such a
    combination by x's sum gives convex weights on the normalized points."""
    if not points:
        return False
    return _phase1_feasible(list(zip(*points)), list(x))


def _phase1_feasible(rows, rhs):
    """Feasibility of A*lam = b, lam >= 0, via the phase-1 simplex method
    with Bland's rule, in fraction-free integer arithmetic (Edmonds 1967;
    Bareiss 1968).  Entries are ints or Fractions; each row of [A | b] is
    scaled to integers by the lcm of its denominators.

    The tableau holds den times the rational tableau, where den is the
    last pivot (1 at the start), so signs and ratios read the same.  The
    ratio test compares by cross-multiplication.  On integer input the
    pivot sequence is that of the same method over Fraction."""
    m, n = len(rows), len(rows[0])
    ncols = n + m
    # rows of [A | I | b] with b >= 0; artificials basic
    tab = []
    for i, row in enumerate(rows):
        row = list(row) + [rhs[i]]
        scale = math.lcm(*(v.denominator for v in row))
        sign = -1 if row[-1] < 0 else 1
        row = [sign * v.numerator * (scale // v.denominator) for v in row]
        tab.append(row[:n] + [int(j == i) for j in range(m)] + row[n:])
    # objective row: cost 1 on artificials, reduced through the basis
    obj = [-sum(col) for col in zip(*tab)]
    obj[n:ncols] = [0] * m
    tab.append(obj)
    basis = list(range(n, ncols))
    den = 1
    while True:
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if leave is None:
                    leave, num, piv = i, tab[i][ncols], a
                    continue
                here, best = tab[i][ncols] * piv, num * a
                if here < best or (here == best and basis[i] < basis[leave]):
                    leave, num, piv = i, tab[i][ncols], a
        if leave is None:
            # unbounded phase-1 cannot happen with artificial basis
            return False
        _pivot(tab, leave, enter, den)
        den = piv
        obj = tab[m]
        basis[leave] = enter
    return obj[ncols] == 0


def _pivot(tab, r, c, den):
    """One fraction-free pivot on row r, column c, for `_phase1_feasible`
    and `solve_kernel`: the pivot row stays, and every other row (the
    objective too) becomes (piv*row - row[c]*pivot_row) // den, den the
    previous pivot.  The division is exact, because every entry is a minor
    of the scaled input (Sylvester's identity)."""
    prow = tab[r]
    piv = prow[c]
    for i, row in enumerate(tab):
        if i == r:
            continue
        f = row[c]
        if f:
            tab[i] = [(piv * a - f * b) // den for a, b in zip(row, prow)]
        elif piv != den:
            tab[i] = [piv * a // den for a in row]


# ---------------------------------------------------------------------------
# simplex iteration


def simplex_image(seq, k, n):
    """Extreme points of the image of the level-(n+1) simplex at level k:
    the normalized columns of the product from level k to n, deduplicated
    and pruned by an exact convex-combination test.

    The columns stay integers until the end: two give the same point
    exactly when their gcd-reduced tuples are equal, and a point lies in
    the hull of the others exactly when its column lies in their cone
    (`in_convex_hull`).  Only the extreme points are normalized.

    Returns a list of (vector, provenance) pairs, where provenance is the
    list of level-(n+1) column labels producing that point."""
    prod = partial_product(seq, k, n)
    keys = list(prod.rows)
    cols = {}
    for b in prod.cols:
        col = [prod.entry(a, b) for a in keys]
        g = math.gcd(*col)
        if g:
            cols.setdefault(tuple(v // g for v in col), []).append(b)
    items = list(cols.items())
    extreme = []
    for i, (col, provenance) in enumerate(items):
        others = [c for j, (c, _) in enumerate(items) if j != i]
        if not in_convex_hull(col, others):
            extreme.append((normalize(dict(zip(keys, col))), provenance))
    return extreme


def extreme_count(seq, depth):
    """The number of finite ergodic measures, as (count, info).

    For eventually periodic input the count is exact: the Finite count of
    the classification, one measure per distinguished stream.  info holds
    it as "exact", with the liminf alphabet size ("liminf_bound") and the
    number of streams; `depth` is not read.  For a truncated window the
    count is the number of extreme points of the level-0 simplex image
    at a depth capped at the window's last level, horizon - 1, and info
    holds that depth, the count ("count_at_depth") and the smallest
    alphabet of levels 1 to depth + 1 ("alphabet_bound").  ShapeMismatch
    when depth < 0, on either input."""
    if depth < 0:
        raise ShapeMismatch("extreme counts need depth >= 0, got %d" % depth)
    if seq.is_eventually_periodic:
        # measures imports this module, so the import waits for the call
        from .measures import _classification
        cls = _classification(seq)
        return cls.finite_count, {"exact": cls.finite_count,
                                  "liminf_bound": seq.liminf_alphabet_size(),
                                  "streams": len(cls.measures)}
    depth = min(depth, seq.horizon - 1)
    raw = len(simplex_image(seq, 0, depth))
    return raw, {"depth": depth, "count_at_depth": raw,
                 "alphabet_bound": min(len(seq.alphabet(i))
                                       for i in range(1, depth + 2))}


# ---------------------------------------------------------------------------
# eigenvector sequences (depth-limited, exact relations)


class EigvecSeqApprox:
    """A finite eigenvector sequence w_0..w_{defect+1} with all relations
    w_i = M_i w_{i+1} holding exactly; the direction is only guaranteed to
    approximate a surviving extreme ray up to the recorded defect.
    `check(seq)` re-verifies the relations (`_relations_hold`)."""

    def __init__(self, levels, defect, provenance):
        self.levels = levels  # list of dicts, index = level
        self.defect = defect
        self.provenance = provenance

    def value(self, i):
        if i >= len(self.levels):
            raise DepthExceeded("level %d beyond defect %d" % (i, self.defect))
        return self.levels[i]

    @property
    def ray0(self):
        return self.levels[0]

    def check(self, seq):
        return _relations_hold(seq, self.value, len(self.levels) - 1)


def _relations_hold(seq, value, n, rows_at=None):
    """Whether w_i = M_i w_{i+1} holds exactly for i < n, with w_i =
    value(i) and M_i = seq.matrix(i); with `rows_at`, only on the rows
    rows_at(i)."""
    for i in range(n):
        m = seq.matrix(i)
        img, cur = m.mul_vec(value(i + 1)), value(i)
        rows = m.rows if rows_at is None else \
            [a for a in m.rows if a in rows_at(i)]
        if any(img.get(a, 0) != cur.get(a, 0) for a in rows):
            return False
    return True


def eigvec_sequences(seq, depth):
    """One depth-limited eigenvector sequence per extreme point of the
    depth-limited simplex, built by exact backward substitution through the
    recorded column provenance: w_{depth+1} = e_b and w_i = M_i w_{i+1},
    scaled so that w_0 sums to 1."""
    extreme = simplex_image(seq, 0, depth)
    out = []
    for point, provenance in extreme:
        b = provenance[0]
        cols = [{a: int(a == b) for a in seq.alphabet(depth + 1)}]
        for i in range(depth, -1, -1):
            cols.append(seq.matrix(i).mul_vec(cols[-1]))
        total = sum(cols[-1].values())
        levels = [{a: Fraction(v, total) for a, v in c.items()}
                  for c in reversed(cols)]
        out.append(EigvecSeqApprox(levels, depth, provenance))
    return out


# ---------------------------------------------------------------------------
# certified Perron data for a primitive matrix


DEFAULT_EPS = Fraction(1, 10 ** 30)


def periodic_pf(m):
    """Certified enclosure of the Perron eigenvalue and eigenvector of a
    primitive square matrix m.  Returns a dict with exact rational bounds.

    The eigenvalue interval is the Collatz-Wielandt bounds (`_cw_bounds`,
    as in `PerronRoot`) at x = m**n * 1, n = 0, 1, ... until hi - lo <=
    DEFAULT_EPS * lo.  The eigenvector box is the componentwise hull of
    the normalized columns of m**p, p the positivity power of
    `is_primitive`'s witness, squared until each width is <= DEFAULT_EPS;
    it contains the Perron direction for every power."""
    if set(m.rows) != set(m.cols):
        raise NonPositiveEntry("need a square matrix")
    if any(v < 0 for v in m.entries.values()):
        raise NonPositiveEntry("negative entry")
    stat = EventuallyPeriodic([], [m])
    prim = is_primitive(stat)
    if not prim.is_yes():
        raise NotPrimitive("matrix is not primitive")
    steps = prim.witness["positive_after"][0]
    power = partial_product(stat, 0, steps - 1)
    if not power.is_positive():
        raise InternalError("m**%d is not positive" % steps)
    x = dict.fromkeys(m.rows, 1)
    iterations = 0
    while True:
        x, lo, hi = _cw_bounds(m, x)
        iterations += 1
        if hi - lo <= DEFAULT_EPS * lo:
            break
        if iterations > 100000:
            raise NotPrimitive("enclosure failed to contract")
    # eigenvector box from normalized columns of a high power
    box_power = power
    while True:
        cols = []
        for b in box_power.cols:
            col = {a: box_power.entry(a, b) for a in box_power.rows}
            cols.append(normalize(col))
        box = {a: (min(c[a] for c in cols), max(c[a] for c in cols))
               for a in m.rows}
        width = max(hi_ - lo_ for lo_, hi_ in box.values())
        if width <= DEFAULT_EPS:
            break
        box_power = box_power.mul(box_power)
    return {"eigenvalue": (lo, hi),
            "eigenvector_box": box,
            "iterations": iterations,
            "positivity_power": steps}


# ---------------------------------------------------------------------------
# exact rays for streams with rational per-period eigenvalue


def solve_kernel(rows_labels, matrix_rows, lam):
    """Kernel basis of (Q - lam*I) restricted to the given labels, exact:
    one basis dict per free column of the reduced row echelon form.
    matrix_rows: dict (a,b) -> value.  Each row is scaled to integers by
    the lcm of its denominators (den(lam) for an integer Q), and
    Gauss-Jordan runs fraction-free (`_pivot`); each row R[i] ends as a
    multiple of the echelon form's, so the entry at pivot column c and
    free column f is -R[i][f] / R[i][c]."""
    n = len(rows_labels)
    idx = {a: i for i, a in enumerate(rows_labels)}
    A = [[Fraction(0)] * n for _ in range(n)]
    for (a, b), v in matrix_rows.items():
        if a in idx and b in idx:
            A[idx[a]][idx[b]] += Fraction(v)
    for i, row in enumerate(A):
        row[i] -= Fraction(lam)
        scale = math.lcm(*(v.denominator for v in row))
        A[i] = [v.numerator * (scale // v.denominator) for v in row]
    pivots = []
    den = 1
    for c in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, n) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        _pivot(A, r, c, den)
        den = A[r][c]
        pivots.append(c)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = Fraction(-A[i][f], A[i][c])
        basis.append({rows_labels[j]: vec[j] for j in range(n)})
    return basis


class ExactEigvec:
    """An exact eigenvector sequence: w_i = M_i w_{i+1} for all i, with
    w_{n+L} = w_n / Lambda in the periodic region.  Values are exact
    rationals at every level.  `check` re-verifies the relations
    (`_relations_hold`), on the rows `rows_at(i)` when that is set."""

    def __init__(self, seq, valid_from, lcm_period, lam, base_levels,
                 prefix_levels, stream_index, rows_at=None):
        self.seq = seq
        self.valid_from = valid_from
        self.lcm_period = lcm_period
        self.eigenvalue = lam  # per-period scaling factor
        self._base = base_levels      # list of dicts for levels P..P+L-1
        self._prefix = prefix_levels  # dicts for levels 0..P-1
        self.stream_index = stream_index
        # optional restriction: the eigen-relation is asserted only on these
        # rows (used for stream-supported rays of infinite measures)
        self.rows_at = rows_at

    def value(self, i):
        P, L = self.valid_from, self.lcm_period
        if i < P:
            return dict(self._prefix[i])
        q, r = divmod(i - P, L)
        scale = Fraction(1) / (Fraction(self.eigenvalue) ** q)
        return {a: v * scale for a, v in self._base[r].items()}

    @property
    def ray0(self):
        return self.value(0)

    def check(self):
        n = self.valid_from + 2 * self.lcm_period
        return _relations_hold(self.seq, self.value, n, self.rows_at)


# x = q**CW_STEPS * 1 is the positive vector of a root's Collatz-Wielandt
# bounds: the fewest steps at which the comparisons the bounds separate on
# the towers and classify benchmark corpora stop growing
CW_STEPS = 4


class PerronRoot:
    """The Perron root of a square nonnegative integer matrix `q`, held
    exactly.

    `bounds` is a pair of Fractions (lo, hi) with lo <= root <= hi, or
    None.  They are the Collatz-Wielandt bounds of `_cw_bounds`, which
    `periodic_pf` runs too, at x = q**CW_STEPS * 1 in integers, kept as
    `vector` (a dict from symbol to a positive int); when some x_i is 0
    there are no bounds.  A 1x1 matrix has x = 1.  When lo == hi, qx =
    lo*x with x > 0, so the root is lo exactly.

    `value` is the root as a Fraction when it is rational, else None.
    `minpoly` is its minimal polynomial: integer coefficients, leading
    first, with gcd 1 and a positive leading coefficient.  `interval` is a
    pair of Fractions that contains the root and no other root of
    `minpoly`; comparisons narrow it in place, so each root is refined
    only as far as some comparison needed.

    The three are set at construction when the bounds meet or q is 1x1.
    Otherwise they are built on the first read of any of them: sympy
    factors the charpoly and isolates its real roots; the largest is the
    Perron root, spelled c*CRootOf(g, i) with g irreducible and c
    rational, and the minimal polynomial of c*theta is g with its variable
    scaled by 1/c.  So sympy runs only for a root that a ray or a
    comparison the bounds cannot decide reads."""

    def __init__(self, q):
        self.q = q
        self.bounds = self.vector = None
        if len(q.rows) == 1:
            x = {q.rows[0]: 1}
        else:
            x = dict.fromkeys(q.rows, 1)
            for _ in range(CW_STEPS):
                x = q.mul_vec(x)
            if not all(x.values()):
                return
        _, lo, hi = _cw_bounds(q, x)
        self.vector, self.bounds = x, (lo, hi)
        if lo == hi:
            self.value, self.minpoly, self.interval = _rational(lo)

    @functools.cached_property
    def value(self):
        return self._algebraic[0]

    @functools.cached_property
    def minpoly(self):
        return self._algebraic[1]

    @functools.cached_property
    def interval(self):
        return self._algebraic[2]

    @functools.cached_property
    def _algebraic(self):
        """(value, minpoly, interval), read off sympy's largest real root
        of the charpoly of q."""
        import sympy
        q = self.q
        labels = list(q.rows)
        M = sympy.Matrix([[q.entry(a, b) for b in labels] for a in labels])
        top = M.charpoly().real_roots(radicals=False)[-1]
        if top.is_Rational:
            return _rational(_fraction(top))
        c, theta = top.as_coeff_Mul()
        num, den = int(c.p), int(c.q)
        g = [int(v) for v in theta.poly.all_coeffs()]
        n = len(g) - 1
        h = [v * num ** i * den ** (n - i) for i, v in enumerate(g)]
        scale = math.gcd(*h) if h[0] > 0 else -math.gcd(*h)
        minpoly = tuple(v // scale for v in h)
        poly = sympy.Poly(minpoly, sympy.Symbol("x"))
        return None, minpoly, tuple(_fraction(v)
                                    for v in poly.intervals()[-1][0])

    def refine(self):
        """Halve `interval`, keeping the half where `minpoly` changes
        sign.  The root is simple and irrational, so no midpoint is a
        root and the endpoint signs differ."""
        lo, hi = self.interval
        mid = (lo + hi) / 2
        if _sign_at(self.minpoly, mid) == _sign_at(self.minpoly, lo):
            self.interval = (mid, hi)
        else:
            self.interval = (lo, mid)

    def compare(self, other):
        """Exact sign (-1, 0 or 1) of self - other, with a witness.

        Two rational roots compare as Fractions: {"lambda": [la, lb],
        "exact": True}.  Otherwise equal minimal polynomials mean equal
        roots, since each root is the largest real root of its minimal
        polynomial: {"minpoly": [c, c], "equal": True}.  Different ones
        mean different roots, and the wider interval is bisected until
        the two are disjoint: {"minpoly": [ca, cb], "intervals": [ia,
        ib]}."""
        if self.value is not None and other.value is not None:
            la, lb = self.value, other.value
            return (la > lb) - (la < lb), {"lambda": [la, lb], "exact": True}
        coeffs = [list(self.minpoly), list(other.minpoly)]
        if self.minpoly == other.minpoly:
            return 0, {"minpoly": coeffs, "equal": True}
        while True:
            (alo, ahi), (blo, bhi) = self.interval, other.interval
            if ahi < blo or bhi < alo:
                sign = 1 if bhi < alo else -1
                return sign, {"minpoly": coeffs,
                              "intervals": [self.interval, other.interval]}
            (self if ahi - alo >= bhi - blo else other).refine()

    def separate(self, other):
        """The sign of self - other when the Collatz-Wielandt bounds alone
        decide it, else None: both roots need bounds, the two bound
        intervals must be disjoint, and they must not both be points (two
        exact Fractions keep `compare`'s witness).  The witness is
        {"bounds": [[lo_a, hi_a], [lo_b, hi_b]], "vectors": [x_a, x_b]}.
        It re-checks from the input alone with one product per root:
        recompute the stream's period product Q, then check x > 0 and
        lo*x <= Qx <= hi*x entrywise."""
        if self.bounds is None or other.bounds is None:
            return None
        (alo, ahi), (blo, bhi) = self.bounds, other.bounds
        if alo == ahi and blo == bhi or blo <= ahi and alo <= bhi:
            return None
        return (1 if bhi < alo else -1), {
            "bounds": [[alo, ahi], [blo, bhi]],
            "vectors": [self.vector, other.vector]}


def _cw_bounds(q, x):
    """(qx, lo, hi) for an integer vector x > 0: lo <= root <= hi are the
    least and greatest (qx)_i / x_i (Collatz 1942, Wielandt 1950)."""
    qx = q.mul_vec(x)
    ratios = [Fraction(qx[a], x[a]) for a in q.rows]
    return qx, min(ratios), max(ratios)


def _rational(v):
    """(value, minpoly, interval) of a rational root v."""
    return v, (v.denominator, -v.numerator), (v, v)


def _fraction(r):
    return Fraction(int(r.p), int(r.q))


def _sign_at(coeffs, x):
    """Sign of the integer polynomial `coeffs` (leading first) at the
    Fraction x, by Horner's rule on den**n * poly(num/den)."""
    num, den = x.numerator, x.denominator
    acc, power = 0, 1
    for c in coeffs:
        acc = acc * num + c * power
        power *= den
    return (acc > 0) - (acc < 0)


def compare_perron(qa, qb):
    """Exact sign (-1, 0 or 1) of lambda_a - lambda_b for the Perron roots
    of two square matrices, with a witness (see PerronRoot.compare)."""
    return PerronRoot(qa).compare(PerronRoot(qb))


def stream_period_eigenvalue(stream):
    """Per-period Perron eigenvalue of a stream, exact when rational.
    Returns a Fraction, or None when the eigenvalue is irrational."""
    return stream.perron_root.value


def exact_ray(decomp, stream):
    """Exact eigenvector sequence spanning the surviving extreme ray that
    the given stream contributes, when its per-period eigenvalue is
    rational.  Returns an ExactEigvec or None.

    Construction: with L the decomposition's lcm period and Q the product
    over one L-block, any eigenvector sequence satisfying w_{n+L} = w_n /
    Lambda has w_P in the kernel of (Q - Lambda I).  Components on blocks
    that do not communicate to the stream are forced to zero; if the
    remaining kernel is one-dimensional and nonnegative, it determines the
    sequence completely."""
    seq = decomp.seq
    P, L = decomp.valid_from, decomp.lcm_period
    lam = stream_period_eigenvalue(stream)
    if lam is None:
        return None
    # reach(P, a) holds a's own stream, so the members are among them
    labels = [a for a in seq.alphabet(P) if stream.index in decomp.reach(P, a)]
    return _ray(decomp, stream, lam, labels,
                partial_product(seq, P, P + L - 1))


def stream_base_ray(decomp, stream):
    """Exact eigenvector sequence supported on the stream itself (zero off
    the stream); always exists when the per-period eigenvalue is rational.
    This is the base ray of the stream's tower.  It reads the stream's
    prefix members, so it reads `decomp.certificates` first."""
    decomp.certificates
    lam = stream_period_eigenvalue(stream)
    if lam is None:
        return None
    q = stream.perron_root.q
    return _ray(decomp, stream, lam, list(q.rows), q, stream.members_at)


def _ray(decomp, stream, lam, labels, q, rows_at=None):
    """The eigenvector sequence through the kernel of (q - lam I) on
    `labels`, or None unless that kernel is one nonnegative direction.
    The kernel vector is w_P, scaled to sum 1; levels P+L-1 down to 0 are
    filled by w_k = M_k w_{k+1} from w_{P+L} = w_P / lam, and level P must
    come back as w_P.  With `rows_at`, each w_k is restricted to the
    symbols rows_at(k), so each product only sees restricted vectors.  The
    result is normalised at level 0 when level 0 carries mass."""
    seq = decomp.seq
    P, L = decomp.valid_from, decomp.lcm_period
    basis = solve_kernel(labels, q.entries, lam)
    if len(basis) != 1:
        return None
    vec = basis[0]
    if all(v <= 0 for v in vec.values()):
        vec = {a: -v for a, v in vec.items()}
    if any(v < 0 for v in vec.values()):
        return None
    total = sum(vec.values())
    v_p = {a: vec.get(a, Fraction(0)) / total for a in seq.alphabet(P)}
    levels = [None] * (P + L)
    nxt = {a: v / lam for a, v in v_p.items()}
    for k in range(P + L - 1, -1, -1):
        m = seq.matrix(k)
        cur = {a: Fraction(x) for a, x in m.mul_vec(nxt).items()}
        if rows_at is not None:
            keep = rows_at(k)
            cur = {a: (v if a in keep else Fraction(0)) for a, v in cur.items()}
        if k == P:
            if any(cur[a] != v_p.get(a, Fraction(0)) for a in m.rows):
                raise InternalError("eigen relation failed at the period seam")
            cur = v_p
        levels[k] = nxt = cur
    total = sum(levels[0].values())
    if total:
        levels = [{a: v / total for a, v in lev.items()} for lev in levels]
    return ExactEigvec(seq, P, L, lam, levels[P:], levels[:P], stream.index,
                       rows_at=rows_at)

import math
from fractions import Fraction

import pytest
import sympy

from adic.cones import compare_perron, normalize
from adic.diagram import _edge_tuple, enumerate_paths
from adic.errors import (IncompatibleAlphabets, InternalError, MalformedWord,
                         NonPositiveEntry, NotPrimitive, ShapeMismatch)
from adic.gallery import _cf_scalars, _cf_term, _period_matrix
from adic.matrixseq import (GenMatrix, EventuallyPeriodic, partial_product,
                            reduce_sequence, is_primitive, wielandt_bound)
from adic.vershik import (LazyPath, _first_special, _rebuild, _word_into,
                          cyclic_return_time, min_word_into)


def labels(d):
    return tuple(str(j) for j in range(d))


def random_ep_sequence(rng, max_dim=4, max_period=3, max_prefix=2,
                       max_entry=2, upper=False):
    """A random eventually periodic sequence with nonzero matrices.  Not
    necessarily reduced.  With `upper`, no entry (a, b) has b < a, so the
    streams are loops of many growth rates, often one reaching another."""
    while True:
        P = rng.randrange(0, max_prefix + 1)
        T = rng.randrange(1, max_period + 1)
        dims = [rng.randrange(1, max_dim + 1) for _ in range(P)]
        cyc_dims = [rng.randrange(1, max_dim + 1) for _ in range(T)]
        dims = dims + cyc_dims + [cyc_dims[0]]
        mats = []
        ok = True
        for k in range(P + T):
            rows, cols = labels(dims[k]), labels(dims[k + 1])
            entries = {}
            for a in rows:
                for b in cols:
                    v = rng.choice([0, 0, 1, 1, rng.randrange(max_entry + 1)])
                    if v and not (upper and b < a):
                        entries[(a, b)] = v
            m = GenMatrix(rows, cols, entries)
            if m.is_zero():
                ok = False
                break
            mats.append(m)
        if not ok:
            continue
        try:
            return EventuallyPeriodic(mats[:P], mats[P:])
        except Exception:
            continue


def random_reduced_sequence(rng, **kw):
    """A random reduced eventually periodic sequence."""
    while True:
        seq = random_ep_sequence(rng, **kw)
        try:
            red, _ = reduce_sequence(seq)
        except Exception:
            continue
        if all(red.alphabet(i) for i in range(red.prefix_len
                                              + red.period + 1)):
            return red


def cycle_with_loop(n):
    """The stationary n-cycle 0 -> 1 -> ... -> n-1 -> 0 with one loop at 0:
    primitive, with least positive power 2n - 2."""
    labs = labels(n)
    entries = {(labs[j], labs[(j + 1) % n]): 1 for j in range(n)}
    entries[(labs[0], labs[0])] = 1
    return EventuallyPeriodic([], [GenMatrix(labs, labs, entries)])


def random_nested_pair(rng, **kw):
    """A random nested pair: a reduced base (`random_reduced_sequence` with
    the keywords `kw`) plus an entrywise-larger ambient over the same
    alphabets."""
    base = random_reduced_sequence(rng, **kw)
    P, T = base.prefix_len, base.period

    def bump(m):
        entries = dict(m.entries)
        for a in m.rows:
            for b in m.cols:
                if rng.random() < 0.3:
                    entries[(a, b)] = entries.get((a, b), 0) + \
                        rng.randrange(1, 3)
        return GenMatrix(m.rows, m.cols, entries)

    ambient = EventuallyPeriodic([bump(base.matrix(k)) for k in range(P)],
                                 [bump(base.cycle[p]) for p in range(T)])
    return base, ambient


def rank_reference(diagram, word, start=0):
    """Oracle for vershik._rank: a fresh count pass over the word's levels
    on every call (`word_counts_reference`), and a scan of each edge's
    ordered incoming list."""
    rank, prev = 0, None
    for e in word:
        if type(e) is not tuple or len(e) != 4 or type(e[0]) is not int \
                or type(e[3]) is not int:
            e = _edge_tuple(e)
        k = e[0]
        if prev is None:
            if k < start:
                raise MalformedWord("edge %r is not at an int level >= %d"
                                    % (e, start))
            counts = word_counts_reference(diagram.seq, k + len(word) - 1,
                                           start)
        elif k != prev[0] + 1 or e[1] != prev[2]:
            raise MalformedWord("edges %r and %r do not compose" % (prev, e))
        for low in diagram.order.incoming(k, e[2]):
            if low == e:
                break
            rank += counts[k][low[1]]
        else:
            raise MalformedWord("edge %r is not in the order at level %d"
                                % (e, k))
        prev = e
    return rank


def word_counts_reference(seq, n, start=0):
    """Oracle for the counts of vershik._RankTable: counts[k][v] = number
    of words of levels start..k-1 ending at v, for k = start..n (None
    below start), by one forward pass of row-vector products."""
    counts = [None] * start + [{a: 1 for a in seq.alphabet(start)}]
    for k in range(start, n):
        counts.append(seq.matrix(k).vec_mul(counts[k]))
    return counts


def successor_at_reference(path):
    """Oracle for vershik._step(path, "succ"): the successor engine before
    the step was shared, (m, successor) with m the level the successor
    changes at, or (None, None) when every edge is maximal."""
    m = _first_special(path, "succ")
    if m is None:
        return None, None
    order = path.diagram.order
    new_edge = order.next_edge(path.edge(m))
    head = min_word_into(path.diagram, new_edge[1], m, path.start)
    return m, _rebuild(path, head + (new_edge,), m)


def predecessor_reference(path):
    """Oracle for vershik._step(path, "pred"): the predecessor body before
    the step was shared, returning (m, predecessor) like
    `successor_at_reference`."""
    m = _first_special(path, "pred")
    if m is None:
        return None, None
    order = path.diagram.order
    new_edge = order.prev_edge(path.edge(m))
    head = _word_into(order.max_edge_into, new_edge[1], m, path.start)
    return m, _rebuild(path, head + (new_edge,), m)


def sub_reference(a, b):
    """The entrywise difference a - b of the deleted GenMatrix.sub; raises
    if any entry would go negative."""
    if set(a.rows) != set(b.rows) or set(a.cols) != set(b.cols):
        raise IncompatibleAlphabets("subtraction needs identical alphabets")
    entries = {}
    for x in a.rows:
        for y in a.cols:
            d = a.entry(x, y) - b.entry(x, y)
            if d < 0:
                raise ShapeMismatch("negative difference at (%r,%r)" % (x, y))
            if d:
                entries[(x, y)] = d
    return GenMatrix(a.rows, a.cols, entries)


def block_matrix_reference(a, c, b, prime):
    """The block matrix [[A, C], [0, B]]: rows are A's rows primed, then B's
    rows; columns are A's columns primed, then B's columns.  A symbol is
    primed by appending the string `prime`."""
    rows = tuple(x + prime for x in a.rows) + tuple(b.rows)
    cols = tuple(y + prime for y in a.cols) + tuple(b.cols)
    entries = {(x + prime, y + prime): v for (x, y), v in a.entries.items()}
    entries.update(((x + prime, y), v) for (x, y), v in c.entries.items())
    entries.update(b.entries)
    return GenMatrix(rows, cols, entries)


def cover_matrix_reference(mh, mb, prime):
    """Oracle for measures._cover_matrix: the cover level built from three
    validated matrices, M zero-extended to Mhat's alphabets, Mhat - M by
    `sub_reference`, and `block_matrix_reference`."""
    base = GenMatrix(mh.rows, mh.cols, mb.entries)
    return block_matrix_reference(mh, sub_reference(mh, base), base, prime)


def kac_partial_sum_brute(embedding, base_measure, depth):
    """Oracle for vershik.kac_partial_sum: the same sum computed word by
    word.  Exponential in depth."""
    total = Fraction(0)
    for w in enumerate_paths(embedding.ambient, depth):
        if all(embedding.is_base_edge(e) for e in w):
            # re-index the ambient edges as edges of the base diagram
            base_w = [(k, a, b, embedding.base_indices(k, a, b).index(i))
                      for (k, a, b, i) in w]
            total += cyclic_return_time(embedding, w) \
                * base_measure.cylinder_mass(base_w)
    return total


def phase1_feasible_fraction(rows, rhs, pivots=None):
    """Oracle for cones._phase1_feasible: feasibility of A*lam = b, lam >=
    0, by the phase-1 simplex method with Bland's rule over Fraction.  With
    `pivots`, each pivot's (row, column) is appended to it."""
    rows = [[Fraction(v) for v in row] for row in rows]
    rhs = [Fraction(v) for v in rhs]
    m, n = len(rows), len(rows[0])
    # make rhs nonnegative
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
    # tableau: columns = original vars + artificials, objective = sum of
    # artificials (to be minimized)
    tab = [rows[i] + [Fraction(1) if j == i else Fraction(0)
                      for j in range(m)] + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    ncols = n + m
    # objective row: cost 1 on artificials, reduced through the basis
    obj = [Fraction(0)] * (ncols + 1)
    for j in range(n, ncols):
        obj[j] = Fraction(1)
    for i in range(m):
        for j in range(ncols + 1):
            obj[j] -= tab[i][j]
    while True:
        enter = None
        for j in range(ncols):
            if obj[j] < 0:
                enter = j
                break
        if enter is None:
            break
        leave, best = None, None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][ncols] / tab[i][enter]
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            return False
        if pivots is not None:
            pivots.append((leave, enter))
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [tab[i][j] - f * tab[leave][j]
                          for j in range(ncols + 1)]
        if obj[enter]:
            f = obj[enter]
            obj = [obj[j] - f * tab[leave][j] for j in range(ncols + 1)]
        basis[leave] = enter
    return -obj[ncols] == 0


def simplex_image_reference(seq, k, n):
    """Oracle for cones.simplex_image: the columns of the product are
    normalized to Fraction points first, deduplicated by those points, and
    each point is kept unless a convex combination of the others (the
    Fraction phase-1 simplex with a sum-to-1 row) reaches it."""
    prod = partial_product(seq, k, n)
    keys = list(prod.rows)
    cols = {}
    for b in prod.cols:
        col = {a: prod.entry(a, b) for a in keys}
        total = sum(col.values())
        if total == 0:
            continue
        point = {a: Fraction(v, 1) / total for a, v in col.items()}
        sig = tuple(point[a] for a in keys)
        cols.setdefault(sig, (point, []))[1].append(b)
    items = list(cols.values())
    extreme = []
    for i, (point, provenance) in enumerate(items):
        others = [p for j, (p, _) in enumerate(items) if j != i]
        rows = [[p[a] for p in others] for a in keys] + [[1] * len(others)]
        rhs = [point[a] for a in keys] + [1]
        if not (others and phase1_feasible_fraction(rows, rhs)):
            extreme.append((point, provenance))
    return extreme


def extremal_paths_reference(diagram, kind):
    """Oracle for vershik.extremal_paths(diagram, kind): the one-period
    return map F(b), the source at level P of the extremal word into b at
    level P + T, is iterated to its eventual image, on which it is a
    bijection; each of its cycles, read from each of its vertices, gives
    one path.  Raises NotReduced when some vertex at level P + T has no
    edge into it."""
    seq = diagram.seq
    sel = (diagram.order.min_edge_into if kind == "min"
           else diagram.order.max_edge_into)
    P, T = seq.prefix_len, seq.period
    F = {b: _word_into(sel, b, P + T, P)[0][1] for b in seq.alphabet(P)}
    image = set(F)
    while True:
        nxt = {F[b] for b in image}
        if nxt == image:
            break
        image = nxt
    paths, seen = [], set()
    for s in sorted(image):
        if s in seen:
            continue
        orbit = [s]
        while F[orbit[-1]] != s:
            orbit.append(F[orbit[-1]])
        seen.update(orbit)
        # orbit[i] = F(orbit[i-1]): orbit[i-1] sits one period above
        for start_pos in range(len(orbit)):
            cycle_edges, expect = [], orbit[start_pos]
            for n in range(len(orbit)):
                v_above = orbit[(start_pos - n - 1) % len(orbit)]
                block = _word_into(sel, v_above, P + (n + 1) * T, P + n * T)
                if block[0][1] != expect:
                    raise InternalError("extremal orbit does not close")
                cycle_edges.extend(block)
                expect = v_above
            paths.append(LazyPath(diagram, _word_into(sel, orbit[start_pos],
                                                      P), cycle_edges))
    paths.sort(key=lambda p: p.word(P + 1))
    return paths


def solve_kernel_fraction(rows_labels, matrix_rows, lam):
    """Oracle for cones.solve_kernel: Gauss-Jordan over Fraction on
    (Q - lam*I), each pivot row divided by its pivot, and one basis vector
    per free column."""
    n = len(rows_labels)
    idx = {a: i for i, a in enumerate(rows_labels)}
    A = [[Fraction(0)] * n for _ in range(n)]
    for (a, b), v in matrix_rows.items():
        if a in idx and b in idx:
            A[idx[a]][idx[b]] += Fraction(v)
    for i in range(n):
        A[i][i] -= Fraction(lam)
    pivots = []
    for c in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, n) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        A[r] = [x / A[r][c] for x in A[r]]
        for i in range(n):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [A[i][j] - f * A[r][j] for j in range(n)]
        pivots.append(c)
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -A[i][f]
        basis.append({rows_labels[j]: vec[j] for j in range(n)})
    return basis


def periodic_pf_fraction(m, eps):
    """Oracle for cones.periodic_pf: powers m up to strict positivity by
    its own loop (guarded by the Wielandt bound), and iterates the
    row-ratio bounds on Fraction vectors normalized to sum 1."""
    if set(m.rows) != set(m.cols):
        raise NonPositiveEntry("need a square matrix")
    if any(v < 0 for v in m.entries.values()):
        raise NonPositiveEntry("negative entry")
    prim = is_primitive(EventuallyPeriodic([], [m]))
    if not prim.is_yes():
        raise NotPrimitive("matrix is not primitive")
    d = len(m.rows)
    power = m
    steps = 1
    while not power.is_positive():
        power = power.mul(m)
        steps += 1
        if steps > wielandt_bound(d) + 1:
            raise NotPrimitive("no positive power within the expected bound")
    v = {a: Fraction(1) for a in m.rows}
    iterations = 0
    while True:
        w = {a: Fraction(x) for a, x in m.mul_vec(v).items()}
        ratios = [w[a] / v[a] for a in m.rows]
        lo, hi = min(ratios), max(ratios)
        total = sum(w.values())
        v = {a: w[a] / total for a in m.rows}
        iterations += 1
        if hi - lo <= eps * lo:
            break
        if iterations > 100000:
            raise NotPrimitive("enclosure failed to contract")
    box_power = power
    while True:
        cols = []
        for b in box_power.cols:
            col = {a: box_power.entry(a, b) for a in box_power.rows}
            cols.append(normalize(col))
        box = {a: (min(c[a] for c in cols), max(c[a] for c in cols))
               for a in m.rows}
        width = max(hi_ - lo_ for lo_, hi_ in box.values())
        if width <= eps:
            break
        box_power = box_power.mul(box_power)
    return {"eigenvalue": (lo, hi),
            "eigenvector_box": box,
            "iterations": iterations,
            "positivity_power": steps}


def exact_check_reference(ray):
    """Oracle for cones.ExactEigvec.check: its own relation loop, over
    Fractions, on the rows ray.rows_at(i) when that is set."""
    for i in range(ray.valid_from + 2 * ray.lcm_period):
        m = ray.seq.matrix(i)
        img = m.mul_vec(ray.value(i + 1))
        cur = ray.value(i)
        rows = m.rows if ray.rows_at is None else \
            [a for a in m.rows if a in ray.rows_at(i)]
        if any(Fraction(img.get(a, 0)) != Fraction(cur.get(a, 0))
               for a in rows):
            return False
    return True


def approx_check_reference(ray, seq):
    """Oracle for cones.EigvecSeqApprox.check: its own relation loop over
    the stored levels."""
    for i in range(len(ray.levels) - 1):
        m = seq.matrix(i)
        img = m.mul_vec(ray.levels[i + 1])
        if any(img.get(a, 0) != ray.levels[i].get(a, 0) for a in m.rows):
            return False
    return True


def nested_rotation_tails_rule(n_spec, nhat_spec):
    """Oracle for gallery.nested_rotation's verdict, as "yes" or "no": the
    closed form it used before it classified the cover.  Finite when the
    partial quotients agree over one joint period of the tails, else when
    the ambient's per-period Perron root is at most the base's (a branch
    that Perron-Frobenius rules out for n <= nhat, n != nhat)."""
    np_, nc = _cf_scalars(n_spec)
    hp, hc = _cf_scalars(nhat_spec)
    P = max(len(np_), len(hp))
    L = math.lcm(len(nc), len(hc))
    window = range(P, P + L)
    if all(_cf_term(np_, nc, i) == _cf_term(hp, hc, i) for i in window):
        return "yes"
    q = _period_matrix(np_, nc, P, L)
    qhat = _period_matrix(hp, hc, P, L)
    return "yes" if compare_perron(qhat, q)[0] <= 0 else "no"


def frobenius_victory_counts(a):
    """Oracle for the Finite and Infinite counts of
    classify_measures(constant(a)), from the raw matrix alone (the
    Frobenius-Victory theorem; Victory 1985, Schneider 1986): each
    nontrivial class of a (a strongly connected set of symbols with a
    cycle) of period p gives p ergodic measures, all Finite when the
    class's Perron root is strictly larger than that of every other
    nontrivial class with a path into it, else all Infinite.  Classes come
    from the transitive closure, periods from level differences along the
    class's edges, and Perron roots are sympy's largest real roots of the
    charpolys.  Returns (finite, infinite, details), details a list of
    (period, verdict, tied), tied when an equal root reaches the class."""
    n = len(a)
    reach = [[bool(a[i][j]) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    reach[i][j] = reach[i][j] or reach[k][j]
    classes = []
    for i in range(n):
        if reach[i][i] and not any(i in c for c in classes):
            classes.append([j for j in range(n) if reach[i][j] and reach[j][i]])
    roots, periods = [], []
    for c in classes:
        poly = sympy.Matrix([[a[i][j] for j in c] for i in c]).charpoly()
        roots.append(max(poly.real_roots()))
        depth, todo = {c[0]: 0}, [c[0]]
        while todo:
            i = todo.pop()
            for j in c:
                if a[i][j] and j not in depth:
                    depth[j] = depth[i] + 1
                    todo.append(j)
        periods.append(math.gcd(*(depth[i] + 1 - depth[j] for i in c
                                  for j in c if a[i][j])))
    finite = infinite = 0
    details = []
    for x, c in enumerate(classes):
        above = [roots[y] for y, d in enumerate(classes)
                 if y != x and reach[d[0]][c[0]]]
        ok = all(bool(roots[x] > r) for r in above)
        tied = any(r == roots[x] for r in above)
        if ok:
            finite += periods[x]
        else:
            infinite += periods[x]
        details.append((periods[x], ok, tied))
    return finite, infinite, details


def telescoped_victory_counts(seq):
    """Oracle for the Finite and Infinite counts of classify_measures(seq),
    seq eventually periodic and not necessarily reduced, from the raw
    matrices alone (the stationary case of the nonstationary theorem;
    Bezuglyi-Kwiatkowski-Medynets-Solomyak 2010).  Telescoped at its
    prefix P and period T, seq is stationary from level P on, with the
    matrix Q = partial_product(seq, P, P + T - 1).  Only the level-P
    symbols that level 0 reaches carry a measure: the columns of the
    prefix product, closed under Q's edges.  `frobenius_victory_counts`
    counts the measures of Q on those symbols; returns its result."""
    P, T = seq.prefix_len, seq.period
    q = partial_product(seq, P, P + T - 1)
    if P:
        pre = partial_product(seq, 0, P - 1)
        todo = [b for b in pre.cols if any(pre.entry(a, b) for a in pre.rows)]
    else:
        todo = list(q.rows)
    reached = set(todo)
    while todo:
        a = todo.pop()
        for b in q.cols:
            if q.entry(a, b) and b not in reached:
                reached.add(b)
                todo.append(b)
    keep = [a for a in q.rows if a in reached]
    return frobenius_victory_counts([[q.entry(a, b) for b in keep]
                                     for a in keep])


@pytest.fixture
def mul_calls(monkeypatch):
    """A list that gets one entry per GenMatrix.mul call during the test."""
    calls = []
    original = GenMatrix.mul

    def counting_mul(self, other):
        calls.append(None)
        return original(self, other)

    monkeypatch.setattr(GenMatrix, "mul", counting_mul)
    return calls

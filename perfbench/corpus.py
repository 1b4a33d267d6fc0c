"""Seeded inputs for the benchmark workloads.

Everything here is built from raw integer matrices through the public
constructors of `adic` (`GenMatrix`, `constant`, `from_int_matrices`,
`substitution_order`), so edits to the test helpers or to `adic.gallery`
cannot silently change what the benchmark measures.  The random generators
follow the logic of the test-suite helpers of the same names.

Every random generator takes a `random.Random`, so the same seed gives the
same inputs.  `relabel` turns an input into an isomorphic copy with renamed
symbols.
"""

import math

from adic import (
    AdicError,
    BratteliDiagram,
    EventuallyPeriodic,
    GenMatrix,
    constant,
    from_int_matrices,
    reduce_sequence,
    substitution_order,
)


def labels(d):
    return tuple(str(j) for j in range(d))


def relabel(seqs, rng):
    """Isomorphic copies of eventually periodic sequences: one seeded
    permutation of all their symbol labels, applied at every level (so the
    cycle still closes, and nested pairs stay nested).  Row and column
    tuples keep their positions, so only the names change."""
    names = sorted({a for seq in seqs
                    for k in range(seq.prefix_len + seq.period)
                    for a in seq.matrix(k).rows})
    perm = list(names)
    rng.shuffle(perm)
    rename = dict(zip(names, perm))

    def copy(m):
        return GenMatrix(tuple(rename[a] for a in m.rows),
                         tuple(rename[b] for b in m.cols),
                         {(rename[a], rename[b]): v
                          for (a, b), v in m.entries.items()})

    return [EventuallyPeriodic([copy(m) for m in seq.prefix],
                               [copy(m) for m in seq.cycle]) for seq in seqs]


# ---------------------------------------------------------------------------
# random sequences


def random_ep_sequence(rng, max_dim=4, max_period=3, max_prefix=2,
                       max_entry=2):
    """A random eventually periodic sequence with nonzero matrices.  Not
    necessarily reduced."""
    while True:
        P = rng.randrange(0, max_prefix + 1)
        T = rng.randrange(1, max_period + 1)
        dims = [rng.randrange(1, max_dim + 1) for _ in range(P)]
        cyc_dims = [rng.randrange(1, max_dim + 1) for _ in range(T)]
        dims = dims + cyc_dims + [cyc_dims[0]]
        mats = []
        for k in range(P + T):
            rows, cols = labels(dims[k]), labels(dims[k + 1])
            entries = {}
            for a in rows:
                for b in cols:
                    v = rng.choice([0, 0, 1, 1, rng.randrange(max_entry + 1)])
                    if v:
                        entries[(a, b)] = v
            m = GenMatrix(rows, cols, entries)
            if m.is_zero():
                break
            mats.append(m)
        else:
            return EventuallyPeriodic(mats[:P], mats[P:])


def random_reduced_sequence(rng, **kw):
    """A random reduced eventually periodic sequence."""
    while True:
        seq = random_ep_sequence(rng, **kw)
        try:
            red, _ = reduce_sequence(seq)
        except AdicError:
            continue
        if all(red.alphabet(i) for i in range(red.prefix_len
                                              + red.period + 1)):
            return red


def random_nested_pair(rng, max_dim=4, max_period=3, max_prefix=2):
    """A random nested pair: reduced base plus an entrywise-larger ambient
    over the same alphabets."""
    base = random_reduced_sequence(rng, max_dim=max_dim,
                                   max_period=max_period,
                                   max_prefix=max_prefix)
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


# ---------------------------------------------------------------------------
# gallery cases, from raw matrices


SEVEN_MATRIX = [
    [[1, 1]],
    [[1, 0, 0, 0], [0, 1, 1, 1]],
    [[1, 0, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1], [0, 1, 1, 0]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1]],
    [[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]],
    [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]],
    [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 1, 1]],
]


def seven_matrix():
    """Five prefix matrices and a two-matrix cycle with three streams."""
    alphs = [labels(len(m)) for m in SEVEN_MATRIX]
    alphs.append(labels(len(SEVEN_MATRIX[-1][0])))
    return from_int_matrices(SEVEN_MATRIX, cycle_from=5, labels=alphs)


def odometer_seq(prefix, cycle):
    """1x1 matrices [n_i]: the adding machine with digit counts n_i."""
    mats = [[[n]] for n in list(prefix) + list(cycle)]
    return from_int_matrices(mats, cycle_from=len(prefix),
                             labels=[("0",)] * (len(mats) + 1))


def gallery_diagrams():
    """Ordered single diagrams: (name, BratteliDiagram)."""
    chacon = constant([[1, 1], [0, 3]], ["0", "1"])
    ics_cover = constant([[3, 1], [0, 2]], ["0", "1"])
    return [
        ("chacon", BratteliDiagram(
            chacon, substitution_order(chacon, {"0": "0", "1": "1101"}))),
        ("ics-cover", BratteliDiagram(
            ics_cover, substitution_order(ics_cover,
                                          {"0": "000", "1": "101"}))),
        ("golden-mean", BratteliDiagram(
            constant([[1, 1], [1, 0]], ["0", "1"]))),
        ("three-cycle", BratteliDiagram(
            constant([[0, 1, 0], [0, 0, 2], [3, 0, 0]], ["0", "1", "2"]))),
        ("seven-matrix", BratteliDiagram(seven_matrix())),
        ("dyadic", BratteliDiagram(constant([[2]], ["0"]))),
        ("odometer-100", BratteliDiagram(constant([[100]], ["0"]))),
        ("odometer-2357", BratteliDiagram(odometer_seq([], [2, 3, 5, 7]))),
    ]


# ---------------------------------------------------------------------------
# paper families of nested pairs, with closed-form verdicts


def _term(prefix, cycle, i):
    if i < len(prefix):
        return prefix[i]
    return cycle[(i - len(prefix)) % len(cycle)]


def rotation_seq(prefix, cycle):
    """The rotation diagram of partial quotients n_i: [[1,0],[n_i,1]] at
    even levels, [[1,n_i],[0,1]] at odd levels; the matrix cycle is the
    scalar cycle stretched to even length."""
    P = len(prefix)
    T = len(cycle) if len(cycle) % 2 == 0 else 2 * len(cycle)
    mats = []
    for i in range(P + T):
        n = _term(prefix, cycle, i)
        mats.append([[1, 0], [n, 1]] if i % 2 == 0 else [[1, n], [0, 1]])
    return from_int_matrices(mats, cycle_from=P,
                             labels=[("0", "1")] * (P + T + 1))


def _mat2_mul(x, y):
    return [[x[0][0] * y[0][0] + x[0][1] * y[1][0],
             x[0][0] * y[0][1] + x[0][1] * y[1][1]],
            [x[1][0] * y[0][0] + x[1][1] * y[1][0],
             x[1][0] * y[0][1] + x[1][1] * y[1][1]]]


def _perron_2x2(m):
    """(t, D): the Perron root of a nonnegative 2x2 integer matrix is
    (t + sqrt(D)) / 2."""
    t = m[0][0] + m[1][1]
    return t, t * t - 4 * (m[0][0] * m[1][1] - m[0][1] * m[1][0])


def _sign_root_diff(t1, D1, t2, D2):
    """Sign of (t1 + sqrt(D1)) - (t2 + sqrt(D2)), exactly (D1, D2 >= 0)."""
    if D1 == D2:
        return (t1 > t2) - (t1 < t2)
    # compare x = t1 - t2 + sqrt(D1) with y = sqrt(D2) >= 0
    dt = t1 - t2
    if dt < 0 and dt * dt > D1:
        return -1                      # x < 0 <= y
    # x >= 0: sign(x^2 - D2) = sign(A + B*sqrt(D1))
    A, B = dt * dt + D1 - D2, 2 * dt
    if A >= 0 and B >= 0:
        return 1 if A or B * B * D1 else 0
    if A <= 0 and B <= 0:
        return -1 if A or B * B * D1 else 0
    lhs, rhs = (B * B * D1, A * A) if B > 0 else (A * A, B * B * D1)
    return (lhs > rhs) - (lhs < rhs)


class PaperPair:
    """A nested pair (base <= ambient) whose tower verdict has a closed
    form: the base measure extends to a finite tower measure iff the
    ambient per-period growth does not exceed the base's."""

    def __init__(self, name, base, ambient, finite):
        self.name = name
        self.base = base
        self.ambient = ambient
        self.finite = finite


def odometer_pair(name, b_spec, a_spec):
    (bp, bc), (ap, ac) = b_spec, a_spec
    P = max(len(bp), len(ap))
    L = math.lcm(len(bc), len(ac))
    lam = math.prod(_term(bp, bc, P + j) for j in range(L))
    lam_hat = math.prod(_term(ap, ac, P + j) for j in range(L))
    return PaperPair(name, odometer_seq(bp, bc), odometer_seq(ap, ac),
                     lam_hat <= lam)


def rotation_pair(name, n_spec, nhat_spec):
    (np_, nc), (hp, hc) = n_spec, nhat_spec
    P = max(len(np_), len(hp))
    # a common period of both matrix cycles (each is even)
    L = math.lcm(2 * len(nc), 2 * len(hc))

    def period_matrix(prefix, cycle):
        m = [[1, 0], [0, 1]]
        for i in range(P, P + L):
            n = _term(prefix, cycle, i)
            m = _mat2_mul(m, [[1, 0], [n, 1]] if i % 2 == 0
                          else [[1, n], [0, 1]])
        return m

    t1, D1 = _perron_2x2(period_matrix(np_, nc))
    t2, D2 = _perron_2x2(period_matrix(hp, hc))
    finite = _sign_root_diff(t2, D2, t1, D1) <= 0
    return PaperPair(name, rotation_seq(np_, nc), rotation_seq(hp, hc),
                     finite)


def paper_pairs():
    """The nested odometer and rotation pairs worked in the paper."""
    return [
        odometer_pair("odometer [2,1] in 2", ([], [2, 1]), ([], [2])),
        odometer_pair("odometer 2 in ([3,4],[2])", ([], [2]), ([3, 4], [2])),
        rotation_pair("rotation 1 in 2", ([], [1]), ([], [2])),
        rotation_pair("rotation [1,2] in [1,2]", ([], [1, 2]), ([], [1, 2])),
    ]


def random_paper_pair(rng, index):
    """A seeded member of the odometer or rotation family (alternating)."""
    def spec(lo, hi):
        prefix = [rng.randint(lo, hi) for _ in range(rng.randrange(0, 3))]
        cycle = [rng.randint(lo, hi) for _ in range(rng.randrange(1, 3))]
        return prefix, cycle

    def shrink(s):
        prefix, cycle = s
        if rng.random() < 0.5:          # same tail: a finite tower
            return [rng.randint(1, n) for n in prefix], list(cycle)
        return ([rng.randint(1, n) for n in prefix],
                [rng.randint(1, n) for n in cycle])

    if index % 2 == 0:
        a = spec(2, 5)
        return odometer_pair("odometer family", shrink(a), a)
    nhat = spec(1, 3)
    return rotation_pair("rotation family", shrink(nhat), nhat)


# ---------------------------------------------------------------------------
# decompose families


def cycle_with_loop(n):
    """The n-cycle 0 -> 1 -> ... -> n-1 -> 0 with one loop at 0."""
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        mat[i][(i + 1) % n] = 1
    mat[0][0] = 1
    return constant(mat, labels(n))


PRIMITIVE_2X2 = ([[1, 1], [1, 0]], [[1, 1], [1, 1]], [[0, 1], [1, 1]],
                 [[2, 1], [1, 1]], [[1, 2], [1, 0]], [[1, 1], [2, 1]])


def block_chain(rng, blocks, period):
    """A block-triangular chain: `blocks` 2x2 primitive diagonal blocks, each
    feeding the next through one 0-1 coupling.  A block keeps its matrix in
    every phase (so its period product stays primitive); the couplings are
    drawn afresh for each of the `period` cycle matrices."""
    d = 2 * blocks
    diag = [rng.choice(PRIMITIVE_2X2) for _ in range(blocks)]
    mats = []
    for _ in range(period):
        m = [[0] * d for _ in range(d)]
        for j, blk in enumerate(diag):
            for r in range(2):
                for c in range(2):
                    m[2 * j + r][2 * j + c] = blk[r][c]
            if j + 1 < blocks:
                m[2 * j + rng.randrange(2)][2 * j + 2 + rng.randrange(2)] = 1
        mats.append(m)
    return from_int_matrices(mats, cycle_from=0,
                             labels=[labels(d)] * (period + 1))

"""Built-in example diagrams used by the golden tests and the CLI.

Each constructor returns ready-made objects (diagrams, orders, nested
pairs) together with the expected classification data recorded next to
them, so tests can compare against fixed targets.
"""

import math
from fractions import Fraction

from .errors import NotNested
from .matrixseq import (
    GenMatrix,
    constant,
    from_int_matrices,
    _scalar_spec,
    _spec_term as _cf_term,
)
from .diagram import BratteliDiagram, substitution_order
from .vershik import SubdiagramEmbedding
from .measures import classify_subdiagram


def odometer(ns=2):
    """Adding-machine diagram: 1x1 matrices [n_i] with the index order.
    `ns` may be an int (constant), a list (repeated cycle), or a
    (prefix, cycle) pair."""
    prefix, cycle = _cf_scalars(ns)
    mats = [[[n]] for n in prefix + cycle]
    labels = [("0",)] * (len(mats) + 1)
    return BratteliDiagram(from_int_matrices(mats, cycle_from=len(prefix),
                                             labels=labels))


def chacon():
    """The Chacon substitution diagram: matrix [[1,1],[0,3]] with the edge
    order read off rho(0) = 0, rho(1) = 1101."""
    seq = constant([[1, 1], [0, 3]], ["0", "1"])
    order = substitution_order(seq, {"0": "0", "1": "1101"})
    diagram = BratteliDiagram(seq, order)
    diagram.expected = {
        "ergodic_measures": 2,
        "distinguished_ray": {"0": Fraction(1, 3), "1": Fraction(2, 3)},
        "atomic_ray": {"0": Fraction(1), "1": Fraction(0)},
    }
    return diagram


def ics(model="cover"):
    """The integer Cantor set inside the triadic odometer.

    model="triadic": the nested pair ([2] <= [3]) with base edges the first
    and third ambient edges (substitution 101 inside an alphabet of three).
    model="cover": the one-diagram model [[3,1],[0,2]] with the order from
    rho(0) = 000, rho(1) = 101."""
    if model == "triadic":
        ambient = BratteliDiagram(constant([[3]], ["0"]))
        base_seq = constant([[2]], ["0"])
        emb = SubdiagramEmbedding(ambient, base_seq,
                                  index_map={("cycle", 0, "0", "0"): [0, 2]})
        return emb
    if model == "cover":
        seq = constant([[3, 1], [0, 2]], ["0", "1"])
        order = substitution_order(seq, {"0": "000", "1": "101"})
        diagram = BratteliDiagram(seq, order)
        diagram.expected = {"finite": 1, "infinite": 1}
        return diagram
    raise ValueError("model must be 'triadic' or 'cover'")


# ---------------------------------------------------------------------------
# nested rotations


def _cf_scalars(spec):
    """Normalize a scalar spec (int | list | (prefix, cycle)), such as
    partial quotients or odometer digit counts, to a (prefix, cycle) pair
    of int lists."""
    prefix, cycle = _scalar_spec(spec)
    return [int(x) for x in prefix], [int(x) for x in cycle]


def rotation_matrices(n_prefix, n_cycle, upto):
    """The alternating unipotent matrices of the rotation diagram: level i
    carries [[1,0],[n_i,1]] for even i and [[1,n_i],[0,1]] for odd i."""
    mats = []
    for i in range(upto):
        n = _cf_term(n_prefix, n_cycle, i)
        if i % 2 == 0:
            mats.append([[1, 0], [n, 1]])
        else:
            mats.append([[1, n], [0, 1]])
    return mats


def rotation_diagram(spec):
    prefix, cycle = _cf_scalars(spec)
    P = len(prefix)
    # the alternation has period 2, so the matrix cycle is the scalar cycle
    # stretched to even length
    T = len(cycle) if len(cycle) % 2 == 0 else len(cycle) * 2
    mats = rotation_matrices(prefix, cycle, P + T)
    labels = [("0", "1")] * (P + T + 1)
    return BratteliDiagram(from_int_matrices(mats, cycle_from=P,
                                             labels=labels))


def cf_convergents(prefix, cycle, count):
    """Convergents p_k/q_k of the continued fraction [n_0; n_1, n_2, ...]."""
    p0, q0 = 1, 0
    p1, q1 = _cf_term(prefix, cycle, 0), 1
    out = [Fraction(p1, q1)]
    for k in range(1, count):
        n = _cf_term(prefix, cycle, k)
        p0, p1 = p1, n * p1 + p0
        q0, q1 = q1, n * q1 + q0
        out.append(Fraction(p1, q1))
    return out


def rotation_lambda_interval(spec, index):
    """Enclosure of lambda = [n_0; n_1, n_2, ...] from consecutive
    convergents p_{index-1}/q_{index-1} and p_index/q_index; the width is
    at most 1/(q_{index-1} q_index)."""
    prefix, cycle = _cf_scalars(spec)
    conv = cf_convergents(prefix, cycle, index + 1)
    lo, hi = sorted((conv[index - 1], conv[index]))
    return lo, hi


def _period_matrix(prefix, cycle, start, length):
    """Product of [[n_i,1],[1,0]] over one scalar period from `start`, as
    a 2x2 GenMatrix."""
    a, b, c, d = 1, 0, 0, 1
    for i in range(start, start + length):
        n = _cf_term(prefix, cycle, i)
        a, b, c, d = n * a + c, n * b + d, a, b
    return GenMatrix.from_lists(("0", "1"), ("0", "1"), [[a, b], [c, d]])


def _perron_2x2(q):
    """(t, D) with Perron eigenvalue (t + sqrt(D)) / 2 of a nonnegative
    integer 2x2 matrix."""
    (a, b), (c, d) = q.to_lists()
    t = a + d
    D = t * t - 4 * (a * d - b * c)
    return t, D


class NestedRotation:
    def __init__(self, base, ambient, verdict, detail):
        self.base = base
        self.ambient = ambient
        self.verdict = verdict
        self.detail = detail


def nested_rotation(n_spec, nhat_spec):
    """Nested pair of rotation diagrams from partial quotients n <= nhat.
    The verdict is Yes for a finite invariant measure on the subdiagram's
    tower, No for infinite, decided by classifying the canonical cover.
    `detail` holds the per-period Perron eigenvalues (t + sqrt(D)) / 2 of
    the integer 2x2 continuant matrices, as (t, D)."""
    np_, nc = _cf_scalars(n_spec)
    hp, hc = _cf_scalars(nhat_spec)
    P = max(len(np_), len(hp))
    L = math.lcm(len(nc), len(hc))
    for i in range(P + L):
        if _cf_term(np_, nc, i) > _cf_term(hp, hc, i):
            raise NotNested("n_%d = %d exceeds nhat_%d = %d"
                            % (i, _cf_term(np_, nc, i), i,
                               _cf_term(hp, hc, i)))
        if _cf_term(np_, nc, i) < 1:
            raise NotNested("partial quotients must be at least 1")
    base = rotation_diagram((np_, nc))
    ambient = rotation_diagram((hp, hc))
    detail = {
        "period": L,
        "lambda_period_eigenvalue": _perron_2x2(
            _period_matrix(np_, nc, P, L)),
        "lambda_hat_period_eigenvalue": _perron_2x2(
            _period_matrix(hp, hc, P, L)),
    }
    results = classify_subdiagram(base.seq, ambient.seq)
    # a rotation base carries a single ergodic measure
    return NestedRotation(base, ambient, results[0].verdict, detail)


# ---------------------------------------------------------------------------
# nested odometers


class NestedOdometer:
    def __init__(self, base, ambient, verdict):
        self.base = base
        self.ambient = ambient
        self.verdict = verdict


def nested_odometer(a_spec, b_spec):
    """Nested pair of adding machines with digit counts b_i <= a_i; the
    verdict is the finiteness of the tower measure over the base, decided
    by classifying the canonical cover."""
    ambient = odometer(_cf_scalars(a_spec))
    base = odometer(_cf_scalars(b_spec))
    results = classify_subdiagram(base.seq, ambient.seq)
    # an odometer base carries a single ergodic measure
    return NestedOdometer(base, ambient, results[0].verdict)


# ---------------------------------------------------------------------------
# stationary and worked examples


def three_cycle():
    """Stationary cycle example: M = [[0,1,0],[0,0,2],[3,0,0]], irreducible
    of period 3 with M^3 diagonal."""
    return BratteliDiagram(constant([[0, 1, 0], [0, 0, 2], [3, 0, 0]],
                                    ["0", "1", "2"]))


def seven_matrix_example():
    """The worked stream-decomposition sequence: five prefix matrices and a
    two-matrix cycle, with three primitive streams."""
    n0 = [[1, 1]]
    n1 = [[1, 0, 0, 0],
          [0, 1, 1, 1]]
    n2 = [[1, 0, 0, 0],
          [1, 0, 1, 0],
          [1, 0, 0, 1],
          [0, 1, 1, 0]]
    n3 = [[1, 0, 0],
          [0, 1, 0],
          [0, 0, 1],
          [0, 0, 1]]
    n4 = [[1, 0, 1, 0],
          [0, 1, 0, 1],
          [0, 0, 1, 1]]
    n5 = [[1, 0, 1, 0],
          [0, 1, 0, 0],
          [0, 0, 1, 1],
          [0, 0, 0, 1]]
    n6 = [[1, 1, 0, 0],
          [0, 1, 1, 0],
          [0, 0, 1, 0],
          [0, 0, 1, 1]]
    mats = [n0, n1, n2, n3, n4, n5, n6]
    labels = [tuple(str(j) for j in range(len(m))) for m in mats]
    labels.append(tuple(str(j) for j in range(len(mats[-1][0]))))
    seq = from_int_matrices(mats, cycle_from=5, labels=labels)
    diagram = BratteliDiagram(seq)
    diagram.expected = {
        "streams": 3,
        "block_matrices": [
            [[1]],
            [[1, 1]],
            [[1, 0, 1], [0, 1, 1]],
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[1, 0, 1], [0, 1, 1], [0, 0, 1]],
            [[1, 0, 1], [0, 1, 0], [0, 0, 1]],
            [[1, 1, 0], [0, 1, 1], [0, 0, 1]],
        ],
    }
    return diagram


EXAMPLES = {
    "dyadic": lambda: odometer(2),
    "triadic": lambda: odometer(3),
    "chacon": chacon,
    "ics-cover": lambda: ics("cover"),
    "ics-triadic": lambda: ics("triadic"),
    "three-cycle": three_cycle,
    "seven-matrix": seven_matrix_example,
    "golden-mean": lambda: BratteliDiagram(
        constant([[1, 1], [1, 0]], ["0", "1"])),
}

"""Central (shift-like invariant) measures on path spaces, the canonical
two-to-one cover of a nested pair of sequences, convergence tests for the
coupled block series, and the finite/infinite classification of ergodic
measures.

All verdicts are exact for eventually periodic data: per-period growth
rates of blocks are compared as exact algebraic numbers (integers for 1x1
blocks), never as floats.
"""

import functools
import math
from fractions import Fraction

from .errors import (
    MalformedWord,
    NotNested,
    NonPositiveEntry,
    NoFiniteBaseMeasure,
    NotEigenvector,
    InternalError,
)
from .verdict import Verdict
from . import cones
from .matrixseq import (
    GenMatrix,
    EventuallyPeriodic,
    Truncated,
    submatrix_leq,
    reduce_sequence,
    _compare_horizon,
    _scalar_spec,
    _spec_term,
)
from .diagram import check_word
from .frobenius import stream_decompose, _stream_order


# ---------------------------------------------------------------------------
# central measures


class CentralMeasure:
    """A measure on the path space determined by an eigenvector sequence:
    the mass of the cylinder of a word ending at symbol s at level n is the
    s-coordinate of w_n.  Additivity and invariance under changing an
    initial segment with the same endpoint hold by construction."""

    def __init__(self, seq, eigvec):
        self.seq = seq
        self.eigvec = eigvec

    def cylinder_mass(self, word):
        """The mass of the cylinder of the edge word `word` from level 0."""
        if not word:
            return sum(self.eigvec.value(0).values())
        check_word(self.seq, word)
        return Fraction(self.eigvec.value(len(word)).get(word[-1][2], 0))


# ---------------------------------------------------------------------------
# canonical cover


class CanonicalCover:
    def __init__(self, cover):
        self.cover = cover


def _cover_matrix(mh, mb, prime):
    """One level of the cover, [[Mhat, Mhat - M], [0, M]] over Mhat's
    symbols primed, then unprimed: one GenMatrix, entered as Mhat primed,
    Mhat - M row-major, then M.  The caller has checked M <= Mhat; the
    constructor rejects negative and off-alphabet entries."""
    rows = tuple(x + prime for x in mh.rows) + mh.rows
    cols = tuple(y + prime for y in mh.cols) + mh.cols
    entries = {(x + prime, y + prime): v for (x, y), v in mh.entries.items()}
    entries.update(((x + prime, y), mh.entry(x, y) - mb.entry(x, y))
                   for x in mh.rows for y in mh.cols)
    entries.update(mb.entries)
    return GenMatrix(rows, cols, entries)


def canonical_cover(m, mhat):
    """The canonical cover of a nested pair m <= mhat: per level the block
    matrix [[Mhat, Mhat-M],[0, M]] over primed+unprimed ambient alphabets.
    A primed symbol ends in one more "'" than any ambient symbol of the
    pair does, so it is never an ambient name: plain "'" unless some
    symbol already ends in "'".  Verified invariants: the nesting itself,
    and entry-sum doubling (sum of the cover matrix = 2 * sum of the
    ambient matrix)."""
    leq = submatrix_leq(m, mhat)
    if leq.is_no():
        raise NotNested("m is not a subsequence of mhat: %r" % (leq.witness,))
    P, L = _compare_horizon(m, mhat)
    names = {a for k in range(P + L + 1) for a in mhat.alphabet(k)}
    prime = "'" * (1 + max(len(a) - len(a.rstrip("'")) for a in names))
    mats = [_cover_matrix(mhat.matrix(k), m.matrix(k), prime)
            for k in range(P + L)]
    cover = EventuallyPeriodic(mats[:P], mats[P:]) if L else Truncated(mats)
    for k, mat in enumerate(mats):
        if mat.entry_sum() != 2 * mhat.matrix(k).entry_sum():
            raise InternalError("entry-sum doubling failed at level %d" % k)
    return CanonicalCover(cover)


# ---------------------------------------------------------------------------
# coupled block products


class SeriesResult:
    def __init__(self, verdict, partial_sums, limit, ratio):
        self.verdict = verdict
        self.partial_sums = partial_sums
        self.limit = limit
        self.ratio = ratio  # per-period ratio prod(a)/prod(b)

    def __repr__(self):
        return "SeriesResult(%s, limit=%r)" % (self.verdict.value, self.limit)


def two_by_two_series(a, b, c, n=40):
    """The series sum_k (prod_{i<k} a_i/b_i) * c_k/a_k for eventually
    periodic positive scalar sequences a, b and nonnegative c.

    Returns a SeriesResult with the first n+1 partial sums, an exact
    convergence verdict, and the exact rational limit when convergent."""
    seqs = [_scalar_spec(x) for x in (a, b, c)]
    P = max(len(pre) for pre, _ in seqs)
    T = math.lcm(*(len(cyc) for _, cyc in seqs))
    # (a_k, b_k, c_k) for every k the partial sums or the limit read
    terms = [[_spec_term(pre, cyc, k) for pre, cyc in seqs]
             for k in range(max(n + 1, P + T))]
    for ak, bk, ck in terms[:P + T]:
        if ak <= 0 or bk <= 0:
            raise NonPositiveEntry("a and b must be positive")
        if ck < 0:
            raise NonPositiveEntry("c must be nonnegative")

    # sums[k]: the sum of the terms i < k; pis[k] = prod_{i<k} a_i/b_i
    sums, pis = [Fraction(0)], [Fraction(1)]
    for ak, bk, ck in terms:
        sums.append(sums[-1] + pis[-1] * Fraction(ck, ak))
        pis.append(pis[-1] * Fraction(ak, bk))
    partial, head = sums[1:n + 2], sums[P]
    ratio = pis[P + T] / pis[P]
    if not any(ck for _, _, ck in terms[P:P + T]):
        # every cycle term is 0, so the series is its head
        verdict = Verdict.yes({"limit": head,
                               "reason": "c vanishes on the cycle"})
        return SeriesResult(verdict, partial, head, ratio)
    if ratio < 1:
        # the tail is one period's sum, scaled by ratio^j in period j
        limit = head + (sums[P + T] - head) / (1 - ratio)
        verdict = Verdict.yes({"limit": limit, "period_ratio": ratio})
        return SeriesResult(verdict, partial, limit, ratio)
    verdict = Verdict.no({"period_ratio": ratio,
                          "reason": "terms do not vanish"})
    return SeriesResult(verdict, partial, None, ratio)


# ---------------------------------------------------------------------------
# exact growth-rate comparison between blocks


def compare_streams(stream_a, stream_b):
    """Exact comparison of per-period Perron eigenvalues: -1, 0 or 1, with
    a machine-checkable witness.  The Collatz-Wielandt bounds decide first
    (cones.PerronRoot.separate, witness {"bounds": ..., "vectors": ...});
    when they overlap, or both roots are exact Fractions, the exact
    comparison decides (cones.PerronRoot.compare).  Each stream holds its
    root, so a stream compared many times is built once."""
    ra, rb = stream_a.perron_root, stream_b.perron_root
    return ra.separate(rb) or ra.compare(rb)


def communicating_streams(decomp, stream):
    """Indices of the streams with an edge path into `stream` within the
    periodic part (transitively, possibly through the pool).  The nodes of
    one stream share one reach set, so one member answers for the stream."""
    P = decomp.valid_from
    return [s.index for s in decomp.streams if s.index != stream.index
            and stream.index in decomp.reach(P, min(s.members_at(P)))]


def _finiteness_verdict(decomp, stream, comms=None):
    """Finite iff every communicating stream has strictly smaller
    per-period growth (equality already diverges).  `comms` is the list of
    communicating stream indices when the caller already knows it."""
    if decomp.provisional:
        return Verdict.undecided(decomp.horizon,
                                 {"reason": "provisional decomposition"})
    if comms is None:
        comms = communicating_streams(decomp, stream)
    comparisons = []
    failed = None
    for i in comms:
        sign, wit = compare_streams(decomp.streams[i - 1], stream)
        comparisons.append({"stream": i, "sign": sign, "data": wit})
        if sign >= 0 and failed is None:
            failed = i
    if failed is None:
        return Verdict.yes({"communicating": comms,
                            "comparisons": comparisons})
    return Verdict.no({"communicating": comms,
                       "comparisons": comparisons,
                       "dominating_stream": failed})


# ---------------------------------------------------------------------------
# the distinguished test


def _check_eigvec(w, m):
    if isinstance(w, cones.ExactEigvec):
        if not w.check():
            raise NotEigenvector("relations w_i = M_i w_{i+1} fail")
        return
    levels = len(getattr(w, "levels", [])) - 1
    if levels < 1 or not w.check(m):
        raise NotEigenvector("relations w_i = M_i w_{i+1} fail")


def _cover_decomposition(m, mhat):
    """The canonical-cover pipeline of is_distinguished and
    classify_subdiagram: the cover of (m, mhat), whose construction is the
    one nesting check, then the stream decomposition of the reduced cover.
    When either sequence is truncated the pipeline stops at the cover, and
    the result is Undecided at the cover's horizon."""
    cover = canonical_cover(m, mhat).cover
    if not cover.is_eventually_periodic:
        return Verdict.undecided(cover.horizon, {"reason": "truncated data"})
    red, _ = reduce_sequence(cover)
    return stream_decompose(red)


def is_distinguished(w, m, mhat):
    """Verdict on: the iterates of the cover of (m, mhat) applied to the
    extension-by-zero of the eigenvector sequence w converge (so w induces a
    finite measure on the ambient path space).

    Exact for eventually periodic pairs via per-period growth comparison of
    the cover's blocks.  When either sequence is truncated the verdict is
    Undecided at the cover's horizon, as in classify_subdiagram."""
    _check_eigvec(w, m)
    decomp = _cover_decomposition(m, mhat)
    if isinstance(decomp, Verdict):
        return decomp
    K = decomp.valid_from
    support = {a for a, v in w.value(K).items() if v}
    carriers = [s for s in decomp.streams if support & set(s.members_at(K))]
    if not carriers:
        # w vanishes on the recurrent part: the series is a finite sum
        return Verdict.yes({"reason": "support leaves the recurrent part"})
    verdicts = [(_finiteness_verdict(decomp, s), s) for s in carriers]
    comparisons = [v.witness for v, _ in verdicts]
    bad = [s.index for v, s in verdicts if v.is_no()]
    if bad:
        return Verdict.no({"streams": bad, "comparisons": comparisons})
    witness = {"streams": [s.index for _, s in verdicts],
               "comparisons": comparisons}
    if len(carriers) == 1:
        ray = cones.exact_ray(decomp, carriers[0])
        if ray is not None:
            witness["iota_ray0"] = ray.ray0
    return Verdict.yes(witness)


# ---------------------------------------------------------------------------
# classification


class ErgodicMeasure:
    """The ergodic measure of one stream of `decomposition`, and its
    finiteness verdict.  The atom and the ray are built on first read; one
    that needs the stream's prefix members first fills the decomposition's
    table, and for a tower's base measure that is the base's first read."""

    def __init__(self, decomposition, stream, verdict):
        self.decomposition = decomposition
        self.stream = stream
        self.verdict = verdict      # Yes = finite, No = infinite

    @functools.cached_property
    def atom(self):
        """Edge data of the stream's single path, or None when it carries
        more than one."""
        return _atom_path(self.decomposition, self.stream)

    @property
    def atomic(self):
        return self.atom is not None

    @functools.cached_property
    def ray(self):
        """The measure's eigenvector sequence, built on first read: for a
        finite measure the exact ray when there is one, else a
        depth-limited one; for any other measure the stream's exact base
        ray.  None when no ray exists."""
        decomp = self.decomposition
        if self.verdict.is_yes():
            ray = cones.exact_ray(decomp, self.stream)
            return ray if ray is not None else _approx_ray(decomp, self.stream)
        return cones.stream_base_ray(decomp, self.stream)

    @property
    def finite(self):
        return self.verdict.is_yes()

    def __repr__(self):
        kind = ("finite" if self.verdict.is_yes()
                else "infinite" if self.verdict.is_no() else "undecided")
        if self.atomic:
            kind += ", atomic"
        return "ErgodicMeasure(stream %d, %s)" % (self.stream.index, kind)


class Classification:
    def __init__(self, seq, decomposition, measures):
        self.seq = seq
        self.decomposition = decomposition
        self.measures = measures

    @property
    def finite_count(self):
        return sum(1 for m in self.measures if m.verdict.is_yes())

    @property
    def infinite_count(self):
        return sum(1 for m in self.measures if m.verdict.is_no())

    def __repr__(self):
        return ("Classification(%d ergodic: %d finite, %d infinite)"
                % (len(self.measures), self.finite_count, self.infinite_count))


def _atom_path(decomp, stream):
    """Edge data of a stream's only path: its edges (k, a, b, 0) from its
    starting time through valid_from + lcm_period - 1, split at
    valid_from.  None when it carries more than one: a stream has members
    at every level from its starting time on, and the walk needs one
    member per level, joined by one edge.  It fills decomp's table first,
    for the stream's prefix members."""
    decomp.certificates
    start, edges = stream.starting_time, []
    for k in range(start, stream.valid_from + stream.lcm_period):
        here, there = stream.members_at(k), stream.members_at(k + 1)
        if len(here) != 1 or len(there) != 1:
            return None
        (a,), (b,) = here, there
        if stream.seq.matrix(k).entry(a, b) != 1:
            return None
        edges.append((k, a, b, 0))
    cut = stream.valid_from - start
    return {"start": start, "prefix_edges": edges[:cut],
            "cycle_edges": edges[cut:]}


def _classification(seq):
    """The streams and verdicts of classify_measures; each measure's atom
    and ray are left to their first read.  Eventually periodic input is
    reduced first; a truncated window goes to stream_decompose as it is,
    read through its continuation, and is the result's `seq`."""
    if seq.is_eventually_periodic:
        seq, _ = reduce_sequence(seq)
    decomp = stream_decompose(seq)
    measures = [ErgodicMeasure(decomp, s, _finiteness_verdict(decomp, s))
                for s in decomp.streams]
    return Classification(seq, decomp, measures)


def classify_measures(seq):
    """One ergodic measure per stream of the reduced sequence: finite iff
    the stream is distinguished (all communicating streams grow strictly
    slower), atomic iff the stream carries a single path.  Rays are exact
    whenever the per-period eigenvalue is rational.  Atoms and rays are
    all built before this returns."""
    cls = _classification(seq)
    for e in cls.measures:
        # built here, so that the call's cost includes them
        e.atom
        e.ray
    return cls


def _approx_ray(decomp, stream):
    depth = decomp.valid_from + 8 * decomp.lcm_period
    cands = cones.eigvec_sequences(decomp.seq, depth)
    K = decomp.valid_from
    members = stream.members_at(K)
    best = None
    for cand in cands:
        mass = sum(v for a, v in cand.value(K).items() if a in members)
        if best is None or mass > best[0]:
            best = (mass, cand)
    return best[1] if best else None


class SubdiagramResult:
    def __init__(self, base_measure, verdict, witness):
        self.base_measure = base_measure
        self.verdict = verdict  # Yes = extends to a finite ambient measure
        self.witness = witness

    def __repr__(self):
        kind = ("Finite" if self.verdict.is_yes()
                else "Infinite" if self.verdict.is_no() else "Undecided")
        return "SubdiagramResult(%s)" % kind


def classify_subdiagram(m, mhat):
    """For each finite ergodic measure of the base m, decide whether its
    invariant extension to the ambient mhat (the tower over the base) has
    finite or infinite total mass.

    Only the canonical cover is fully decomposed.  Its unprimed symbols
    have edges only to unprimed symbols, and those are the base's edges,
    so each base stream is a cover stream, and base stream t communicates
    into base stream s iff t reaches s's cover stream in the cover.  The
    base gives its stream order (its numbering) and its own Perron roots,
    so the base verdicts and witnesses are classify_measures(m)'s; a base
    measure's atom and ray are built on first read.

    NoFiniteBaseMeasure when the base has no finite measure (a truncated
    base has none) or a base stream is not a cover stream.  When only the
    ambient is truncated, each verdict is Undecided at the cover's
    horizon, as in is_distinguished."""
    decomp = _cover_decomposition(m, mhat)
    if isinstance(decomp, Verdict):
        finite = [e for e in _classification(m).measures
                  if e.verdict.is_yes()]
        if not finite:
            raise NoFiniteBaseMeasure(
                "the base carries no finite ergodic measure")
        return [SubdiagramResult(e, decomp, {}) for e in finite]
    base = _stream_order(reduce_sequence(m)[0])
    K = max(decomp.valid_from, base.valid_from)
    L = math.lcm(decomp.lcm_period, base.lcm_period)
    targets, reach = [], []
    for s in base.streams:
        # the one candidate is the cover stream of a base member at level K,
        # and the cover streams that member reaches are the stream's
        a = min(s.members_at(K))
        i = decomp.stream_of(K, a)
        target = None if i is None else decomp.streams[i - 1]
        if target is None or any(
                target.members_at(K + j) != s.members_at(K + j)
                for j in range(L)):
            raise NoFiniteBaseMeasure(
                "base stream %d is not recurrent in the cover" % s.index)
        targets.append(target)
        reach.append(decomp.reach(K, a))
    results = []
    for s, target in zip(base.streams, targets):
        comms = [t.index for t, r in zip(base.streams, reach)
                 if t is not s and target.index in r]
        e = ErgodicMeasure(base, s, _finiteness_verdict(base, s, comms))
        if e.verdict.is_yes():
            verdict = _finiteness_verdict(decomp, target)
            witness = dict(verdict.witness)
            witness["cover_stream"] = target.index
            results.append(SubdiagramResult(e, verdict, witness))
    if not results:
        raise NoFiniteBaseMeasure("the base carries no finite ergodic measure")
    return results


# ---------------------------------------------------------------------------
# stationary Parry data


def parry_measure_stationary(m, word):
    """Certified rational enclosures of the central and invariant (Parry)
    measures of a cylinder of a primitive stationary diagram.  `word` is a
    state word x_0..x_n (n edges).  Central: lambda^{-n} w_{x_n} with w the
    normalized right Perron vector; invariant: lambda^{-n} v_{x_0} w_{x_n} /
    (v.w) with v the left Perron vector."""
    states = list(word)
    if not states or any(x not in m.rows for x in states):
        raise MalformedWord("%r is not a state word over %r" % (word, m.rows))
    for i in range(len(states) - 1):
        if m.entry(states[i], states[i + 1]) == 0:
            return {"central": (Fraction(0), Fraction(0)),
                    "invariant": (Fraction(0), Fraction(0)),
                    "empty": True}
    n = len(states) - 1
    pf = cones.periodic_pf(m)
    lam_lo, lam_hi = pf["eigenvalue"]
    w_box = pf["eigenvector_box"]
    pf_t = cones.periodic_pf(m.transpose())
    v_box = pf_t["eigenvector_box"]
    x0, xn = states[0], states[-1]

    def inv_pow(lo, hi, k):
        if k == 0:
            return (Fraction(1), Fraction(1))
        return (Fraction(1) / hi ** k, Fraction(1) / lo ** k)

    il, ih = inv_pow(lam_lo, lam_hi, n)
    central = (il * w_box[xn][0], ih * w_box[xn][1])
    vw_lo = sum(v_box[a][0] * w_box[a][0] for a in m.rows)
    vw_hi = sum(v_box[a][1] * w_box[a][1] for a in m.rows)
    inv_lo = il * v_box[x0][0] * w_box[xn][0] / vw_hi
    inv_hi = ih * v_box[x0][1] * w_box[xn][1] / vw_lo
    return {"central": central, "invariant": (inv_lo, inv_hi),
            "eigenvalue": (lam_lo, lam_hi), "empty": False}

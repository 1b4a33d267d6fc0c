"""The four benchmark workloads.

A workload is a fixed corpus of inputs, the op each input goes through (the
timed part), and an oracle that re-checks the op's output without trusting
the code that produced it.  `check` returns the op's canonical output, which
the runner folds into a digest so two runs of one seed can be compared byte
for byte.

Two seeds make the inputs.  The corpus seed fixes their structure (which
matrices, which diagrams, in which order); it defaults to CORPUS_SEED, and
corpus seed 1009 is held out for confirming a gain.  The run
seed fixes their presentation: a seeded renaming of every input's symbols
(`corpus.relabel`), or for `orbit` the random paths.  So every run seed sees
the same work in a different form.

The ops call `adic` through module attributes (`measures.classify_measures`
and so on), never through names bound here, so the tracer's wrappers see
every call.
"""

import math
import random
from fractions import Fraction

import corpus as C
from adic import BratteliDiagram, frobenius, measures, vershik
from adic.cones import ExactEigvec, EigvecSeqApprox
from adic.errors import NoFiniteBaseMeasure
from adic.matrixseq import to_json as seq_to_json


class OracleFailure(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise OracleFailure(message)


def _frac(x):
    x = Fraction(x)
    return "%d/%d" % (x.numerator, x.denominator)


def _entry_sum(m):
    return sum(m.entries.values())


class Item:
    """One input: `kind` says which family it comes from."""

    def __init__(self, kind, label, data):
        self.kind = kind
        self.label = label
        self.data = data

    def describe(self):
        """JSON-able form of the input, for failure reports."""
        data = self.data if isinstance(self.data, tuple) else (self.data,)
        return {"kind": self.kind, "label": self.label,
                "input": [_describe(x) for x in data]}


def _describe(x):
    if isinstance(x, BratteliDiagram):
        return x.to_json()
    if isinstance(x, vershik.LazyPath):
        return {"prefix_edges": x.prefix_edges, "tail_cycle": x.tail_cycle}
    if hasattr(x, "is_eventually_periodic"):
        return seq_to_json(x)
    return getattr(x, "name", repr(x))


CORPUS_SEED = 0


class Workload:
    """`seconds` sets the amount of work: the corpus holds
    ceil(seconds * rate) inputs (at least `min_ops`), where `rate` is the
    number of ops per second this workload ran at when the benchmark was
    written (2-vCPU host).  Every commit is then measured on the same ops.
    All inputs are built here, as part of set-up."""

    min_ops = 100
    rate = None
    trace_ops = None        # a traced run stops after this many ops

    def __init__(self, seed, seconds, corpus_seed=CORPUS_SEED):
        n = max(self.min_ops, math.ceil(seconds * self.rate))
        structure = self.structure(random.Random(corpus_seed))
        presentation = random.Random(seed)
        self.items = [self.present(next(structure), presentation)
                      for _ in range(n)]

    def structure(self, rng):
        """Endless stream of Items, driven by the corpus seed."""
        raise NotImplementedError

    def present(self, item, rng):
        """The Item as this run seed shows it: symbols renamed."""
        return Item(item.kind, item.label, C.relabel([item.data], rng)[0])

    def run(self, item):
        raise NotImplementedError

    def check(self, item, result):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# classify


class Classify(Workload):
    """One op is `classify_measures(seq)`."""

    name = "classify"
    rate = 15
    gallery = ("chacon", "ics-cover", "golden-mean", "three-cycle",
               "seven-matrix", "dyadic")

    def structure(self, rng):
        for name, d in C.gallery_diagrams():
            if name in self.gallery:
                yield Item("gallery", name, d.seq)
        while True:
            yield Item("random", "ep dim<=8", C.random_ep_sequence(
                rng, max_dim=8, max_period=3, max_prefix=2, max_entry=2))

    def run(self, item):
        return measures.classify_measures(item.data)

    def check(self, item, cls):
        out = []
        for e in cls.measures:
            ray, kind = e.ray, "none"
            if isinstance(ray, ExactEigvec):
                kind = "exact"
                _require(ray.check(), "stream %d: exact ray fails its "
                         "eigen relations" % e.stream.index)
            elif isinstance(ray, EigvecSeqApprox):
                kind = "approx"
                _require(ray.check(cls.seq), "stream %d: approximate ray "
                         "fails its relations" % e.stream.index)
            if e.verdict.is_yes():
                _require(ray is not None,
                         "stream %d: finite measure without a ray"
                         % e.stream.index)
                _require(sum(ray.ray0.values()) == 1,
                         "stream %d: ray does not sum to 1" % e.stream.index)
            ray0 = sorted((a, _frac(v)) for a, v in ray.ray0.items()) \
                if ray is not None else None
            out.append([e.stream.index, e.verdict.value, e.atomic, kind, ray0])
        return out


# ---------------------------------------------------------------------------
# towers


class Towers(Workload):
    """One op is `classify_subdiagram(base, ambient)`."""

    name = "towers"
    rate = 25

    def structure(self, rng):
        for pair in C.paper_pairs():
            yield Item("paper", pair.name, (pair.base, pair.ambient, pair))
        i = 0
        while True:
            for _ in range(8):
                base, amb = C.random_nested_pair(rng, max_dim=4, max_period=3)
                yield Item("random", "nested dim<=4", (base, amb, None))
            pair = C.random_paper_pair(rng, i)
            yield Item("family", pair.name, (pair.base, pair.ambient, pair))
            i += 1

    def present(self, item, rng):
        """Base and ambient renamed alike, so they stay nested."""
        base, amb, pair = item.data
        return Item(item.kind, item.label,
                    tuple(C.relabel([base, amb], rng)) + (pair,))

    def run(self, item):
        base, amb, _ = item.data
        try:
            return measures.classify_subdiagram(base, amb)
        except NoFiniteBaseMeasure:
            return None

    def check(self, item, results):
        base, amb, pair = item.data
        # nesting, entry by entry, and entry-sum doubling of the cover
        cov = measures.canonical_cover(base, amb).cover
        for k in range(cov.prefix_len + cov.period):
            mb, ma = base.matrix(k), amb.matrix(k)
            _require(all(v <= ma.entries.get(key, 0)
                         for key, v in mb.entries.items()),
                     "level %d: base not nested in ambient" % k)
            _require(_entry_sum(cov.matrix(k)) == 2 * _entry_sum(ma),
                     "level %d: cover entry sum is not doubled" % k)
        if results is None:
            _require(pair is None, "%s: no finite base measure" % item.label)
            return "no finite base measure"
        if pair is not None:
            _require(len(results) == 1 and results[0].verdict.is_decided(),
                     "%s: expected one decided verdict" % item.label)
            _require(results[0].verdict.is_yes() == pair.finite,
                     "%s: verdict %s, closed form says %s"
                     % (item.label, results[0].verdict.value,
                        "finite" if pair.finite else "infinite"))
        return [[r.base_measure.stream.index, r.verdict.value,
                 r.witness.get("cover_stream")] for r in results]


# ---------------------------------------------------------------------------
# orbit


DEPTH = 12
WALK_STEPS = 40


def level_counts(seq, depth):
    """counts[k][v]: the number of words of levels 0..k-1 ending at v, by a
    direct count over the matrix entries (k = 0..depth)."""
    counts = [{a: 1 for a in seq.alphabet(0)}]
    for k in range(depth):
        nxt = dict.fromkeys(seq.matrix(k).cols, 0)
        for (a, b), v in seq.matrix(k).entries.items():
            nxt[b] += counts[k].get(a, 0) * v
        counts.append(nxt)
    return counts


def rank_oracle(diagram, word, counts):
    """Anti-lexicographic rank of `word` in its endpoint class, from the
    edge order and the direct counts."""
    rank = 0
    for e in word:
        for low in diagram.order.incoming(e[0], e[2]):
            if low == e:
                break
            rank += counts[e[0]][low[1]]
    return rank


def sample_path(rng, diagram, depth):
    """A uniformly stepped random word of `depth` edges, continued by the
    first outgoing edge at each level until the (phase, vertex) state
    repeats; the repeat closes the periodic tail."""
    seq = diagram.seq
    P, T = seq.prefix_len, seq.period
    v = rng.choice(seq.alphabet(0))
    word = []
    for k in range(depth):
        m = seq.matrix(k)
        out = [(b, i) for b in m.cols for i in range(m.entries.get((v, b), 0))]
        b, i = rng.choice(out)
        word.append((k, v, b, i))
        v = b
    seen, tail, k = {}, [], depth
    while True:
        if k >= P:
            state = ((k - P) % T, v)
            if state in seen:
                cut = seen[state]
                break
            seen[state] = len(tail)
        m = seq.matrix(k)
        b = next(b for b in m.cols if m.entries.get((v, b), 0))
        tail.append((k, v, b, 0))
        v, k = b, k + 1
    return vershik.LazyPath(diagram, word + tail[:cut], tail_cycle=tail[cut:])


class Orbit(Workload):
    """Two op kinds on a seeded pool of ordered diagrams: `rank` ranks a
    depth-12 word, takes the successor and re-ranks; `walk` runs
    `simulate_orbit` for WALK_STEPS steps."""

    name = "orbit"
    min_ops = 1000
    rate = 700
    trace_ops = 1000        # spans stay in memory: ~400 000 for these ops
    gallery = ("dyadic", "chacon", "ics-cover", "golden-mean",
               "odometer-100", "odometer-2357")
    random_diagrams = 24
    kinds = ("rank", "walk")

    def __init__(self, seed, seconds, corpus_seed=CORPUS_SEED):
        self._counts = {}
        super().__init__(seed, seconds, corpus_seed)

    def structure(self, rng):
        pool = [(n, d) for n, d in C.gallery_diagrams() if n in self.gallery]
        for j in range(self.random_diagrams):
            pool.append(("random %d" % j, BratteliDiagram(
                C.random_reduced_sequence(rng, max_dim=4))))
        while True:
            order = list(range(len(pool)))
            rng.shuffle(order)
            for n, j in enumerate(order):
                name, d = pool[j]
                yield Item(self.kinds[n % len(self.kinds)], name, d)

    def present(self, item, rng):
        d = item.data
        return Item(item.kind, item.label, (d, sample_path(rng, d, DEPTH)))

    def run(self, item):
        d, path = item.data
        if item.kind == "walk":
            return vershik.simulate_orbit(path, WALK_STEPS)
        r = vershik.anti_lex_rank(d, path.word(DEPTH))
        s = vershik.successor(path)
        r2 = vershik.anti_lex_rank(d, s.word(DEPTH)) if s is not None \
            else None
        return r, s, r2

    def check(self, item, result):
        d, path = item.data
        if item.label not in self._counts:
            self._counts[item.label] = level_counts(d.seq, DEPTH)
        counts = self._counts[item.label]
        word = path.word(DEPTH)
        v = word[-1][2]
        size = counts[DEPTH][v]
        r = rank_oracle(d, word, counts)
        if item.kind == "rank":
            r_op, s, r2 = result
            _require(r_op == r, "rank %d, oracle says %d" % (r_op, r))
            if s is None:
                _require(r == size - 1, "no successor below the class maximum")
                return [item.label, r, None]
            sword = s.word(DEPTH)
            _require(r2 == rank_oracle(d, sword, counts),
                     "successor rank %d disagrees with the oracle" % r2)
            if r < size - 1:
                _require(sword[-1][2] == v and r2 == r + 1,
                         "successor word has rank %d, expected %d in class %r"
                         % (r2, r + 1, v))
            else:
                _require(r2 == 0, "successor of a class maximum has rank %d"
                         % r2)
            return [item.label, r, r2]
        steps = result["steps_performed"]
        if steps == WALK_STEPS:
            _require(sum(result["visits"].values()) == steps + 1,
                     "visit counts do not add up to the steps")
        else:
            # an orbit that reaches the maximal path counts that path twice
            # in "visits" at this commit, so visits are not checked here
            _require(vershik.successor(result["final"]) is None,
                     "orbit stopped before the maximal path")
        fword = result["final"].word(DEPTH)
        r1 = rank_oracle(d, fword, counts)
        if r + steps < size:
            _require(fword[-1][2] == v and r1 == r + steps,
                     "%d steps from rank %d ended at rank %d" % (steps, r, r1))
        else:
            _require(r1 < counts[DEPTH][fword[-1][2]],
                     "final rank outside its class")
        return [item.label, steps, r, r1, fword[-1][2]]


# ---------------------------------------------------------------------------
# decompose


def _bit_reversed(n):
    """0..n-1 in bit-reversed order, so any stretch of a round mixes small
    and large sizes."""
    bits = max(1, (n - 1).bit_length())
    return sorted(range(n),
                  key=lambda j: int(format(j, "0%db" % bits)[::-1], 2))


# 16 sizes each, denser at the small end: the largest cycles cost 100x the
# smallest and would otherwise crowd out every other op
CYCLE_SIZES = [round(8 * (68 / 8) ** (j / 15)) for j in range(16)]   # 8..68
CHAIN_BLOCKS = [round(2 * 15 ** (j / 15)) for j in range(16)]        # 2..30


def _block_key(label):
    return (int(label[1:]), 0) if label.startswith("P") else (int(label), 1)


def _bool_product_positive(mats, start, n):
    """Is the product of n boolean matrices mats[start], mats[start+1], ...
    (indices mod len(mats)) strictly positive?  Each matrix is
    (rows, cols, {row: set of cols})."""
    L = len(mats)
    rows, _, _ = mats[start % L]
    reach = {a: {a} for a in rows}
    cols = None
    for j in range(start, start + n):
        _, cols, adj = mats[j % L]
        reach = {a: set().union(*(adj.get(x, ()) for x in r))
                 for a, r in reach.items()}
    return all(r == set(cols) for r in reach.values())


class Decompose(Workload):
    """One op is `stream_decompose(seq)` followed by `frobenius_form(seq)`."""

    name = "decompose"
    rate = 19

    def structure(self, rng):
        yield Item("golden", "seven-matrix", C.seven_matrix())
        while True:
            for j in _bit_reversed(16):
                n = CYCLE_SIZES[j]
                yield Item("cycle", "cycle n=%d" % n, C.cycle_with_loop(n))
                b = CHAIN_BLOCKS[j]
                yield Item("chain", "chain %d blocks" % b,
                           C.block_chain(rng, b, rng.randint(1, 3)))
                yield Item("random", "reduced dim<=10",
                           C.random_reduced_sequence(rng, max_dim=10,
                                                     max_period=4,
                                                     max_prefix=3))

    def run(self, item):
        return (frobenius.stream_decompose(item.data),
                frobenius.frobenius_form(item.data))

    def check(self, item, result):
        decomp, form = result
        seq = item.data
        P, L = decomp.valid_from, decomp.lcm_period
        blocks = []
        for k in range(P + L):
            bm = decomp.block_matrix(k)
            for (r, c), v in bm.entries.items():
                _require(v == 1, "level %d: block matrix not 0-1" % k)
                _require(_block_key(r) <= _block_key(c),
                         "level %d: block matrix not upper-triangular" % k)
            blocks.append(bm.to_lists())
        for s in decomp.streams:
            cert = decomp.certificates["streams"][s.index]
            _require(cert.is_yes(), "stream %d not certified" % s.index)
            mats = []
            for j in range(L):
                rows, cols = s.members_at(P + j), s.members_at(P + j + 1)
                adj = {}
                for (a, b) in seq.matrix(P + j).entries:
                    if a in rows and b in cols:
                        adj.setdefault(a, set()).add(b)
                mats.append((rows, cols, adj))
            for k, n in cert.witness["positive_after"].items():
                _require(_bool_product_positive(mats, k, n),
                         "stream %d: product of %d matrices from phase %d "
                         "is not positive" % (s.index, n, k))
        return [len(decomp.streams), P, L, blocks, form.gathering_times,
                [sorted(s.members_at(P)) for s in decomp.streams]]


WORKLOADS = {w.name: w for w in (Classify, Towers, Orbit, Decompose)}

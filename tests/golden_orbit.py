"""The golden orbit outputs: ranks, successors, orbit statistics, return
times and Kac sums on the gallery diagrams and on seeded random ones.
`tests/test_golden.py` compares them byte for byte with
`tests/golden/orbit.json`; running this file rewrites that file:

    PYTHONPATH=src python tests/golden_orbit.py

For each ordered diagram (the gallery's, plus `random_reduced_sequence`
diagrams with dim <= 4) a record holds, for seeded random words of depth
1..10, `anti_lex_rank` of the word and of each of its cuts (the word
without its first c edges); for seeded random eventually periodic paths,
the depth-limited words of five successor steps and a `simulate_orbit`
of 30 steps at its default cylinder depth.  For each embedding
(`ics("triadic")`, a finite tower over the triadic base, and
`SubdiagramEmbedding`s of seeded random nested pairs) it holds `return_time` and `cyclic_return_time` of every base word
of depth 1..4 starting at level 0 or 1, `return_time` of an extremal
path, and `kac_partial_sum` at depths 1..8 for each exact base measure.
"""

import json
import pathlib
import random

from adic.cones import ExactEigvec
from adic.diagram import BratteliDiagram, enumerate_paths
from adic.errors import AdicError
from adic.gallery import EXAMPLES, ics
from adic.matrixseq import constant, from_int_matrices
from adic.measures import CentralMeasure, classify_measures
from adic.verdict import _jsonable
from adic.vershik import (LazyPath, SubdiagramEmbedding, anti_lex_rank,
                          cyclic_return_time, kac_partial_sum, return_time,
                          simulate_orbit, successor)

from conftest import random_nested_pair, random_reduced_sequence

GOLDEN = pathlib.Path(__file__).parent / "golden" / "orbit.json"


def _outcome(f, *args):
    """f(*args), or the name of the AdicError it raises."""
    try:
        return f(*args)
    except AdicError as exc:
        return type(exc).__name__


def random_word(rng, seq, depth, start=0):
    """A uniformly stepped random word of `depth` edges from level `start`,
    or None when it reaches a vertex with no outgoing edge."""
    v = rng.choice(seq.alphabet(start))
    word = []
    for k in range(start, start + depth):
        m = seq.matrix(k)
        out = [(b, i) for b in m.cols for i in range(m.entry(v, b))]
        if not out:
            return None
        b, i = rng.choice(out)
        word.append((k, v, b, i))
        v = b
    return tuple(word)


def random_path(rng, diagram, depth):
    """A random word of `depth` edges continued by the first outgoing edge
    at each level until the (phase, vertex) state repeats, as a LazyPath;
    None when some vertex on the way has no outgoing edge."""
    seq = diagram.seq
    P, T = seq.prefix_len, seq.period
    word = random_word(rng, seq, depth)
    if word is None:
        return None
    v, k = word[-1][2], depth
    seen, tail = {}, []
    while True:
        if k >= P:
            state = ((k - P) % T, v)
            if state in seen:
                cut = seen[state]
                break
            seen[state] = len(tail)
        m = seq.matrix(k)
        b = next((b for b in m.cols if m.entry(v, b)), None)
        if b is None:
            return None
        tail.append((k, v, b, 0))
        v, k = b, k + 1
    return LazyPath(diagram, word + tuple(tail[:cut]), tail[cut:])


def diagram_record(rng, diagram):
    seq = diagram.seq
    ranks = []
    while len(ranks) < 12:
        word = random_word(rng, seq, rng.randint(1, 10))
        if word is not None:
            ranks.append([word, [anti_lex_rank(diagram, word[c:])
                                 for c in range(len(word))]])
    orbits = []
    while len(orbits) < 4:
        path = random_path(rng, diagram, rng.randint(1, 6))
        if path is None:
            continue
        steps, cur = [], path
        for _ in range(5):
            cur = successor(cur)
            if cur is None:
                steps.append(None)
                break
            steps.append(cur.word(8))
        stats = simulate_orbit(path, 30)
        orbits.append({
            "path": path.word(8), "successors": steps,
            "visits": sorted([w, n] for w, n in stats["visits"].items()),
            "frequencies": sorted([w, f] for w, f
                                  in stats["frequencies"].items()),
            "change_levels": sorted(stats["change_levels"].items()),
            "steps_performed": stats["steps_performed"],
            "final": stats["final"].word(8)})
    return {"ranks": ranks, "orbits": orbits}


def embedding_record(emb):
    ambient = emb.ambient
    times = []
    for start in (0, 1):
        for depth in range(1, 5):
            for w in enumerate_paths(ambient, start + depth):
                w = w[start:]
                if all(emb.is_base_edge(e) for e in w):
                    times.append([w, _outcome(return_time, emb, w),
                                  _outcome(cyclic_return_time, emb, w)])
    paths = []
    for kind in ("min", "max"):
        for v in ambient.seq.alphabet(0):
            path = _outcome(LazyPath, ambient, (), None, 0, kind, v)
            if isinstance(path, LazyPath):
                paths.append([kind, v, path.word(6),
                              _outcome(return_time, emb, path)])
    kac = []
    for e in classify_measures(emb.base_seq).measures:
        if isinstance(e.ray, ExactEigvec):
            mu = CentralMeasure(emb.base_seq, e.ray)
            kac.append([e.stream.index, [kac_partial_sum(emb, mu, d)
                                         for d in range(1, 9)]])
    return {"times": times, "extremal": paths, "kac": kac}


def orbit_sets():
    """(label, diagram) and (label, embedding) pairs, seeded."""
    diagrams = [(name, make()) for name, make in sorted(EXAMPLES.items())]
    diagrams = [(n, d) for n, d in diagrams if isinstance(d, BratteliDiagram)]
    rng = random.Random(2024)
    diagrams += [("random %d" % j, BratteliDiagram(
        random_reduced_sequence(rng, max_dim=4))) for j in range(20)]
    finite = SubdiagramEmbedding(
        BratteliDiagram(from_int_matrices([[[3]], [[2]]], cycle_from=1,
                                          labels=[("0",)] * 3)),
        constant([[2]], ["0"]))
    embeddings = [("ics-triadic", ics("triadic")), ("finite tower", finite)]
    for j in range(8):
        base, amb = random_nested_pair(rng, max_dim=3)
        embeddings.append(("random pair %d" % j,
                           SubdiagramEmbedding(BratteliDiagram(amb), base)))
    return diagrams, embeddings


def orbit_json():
    """The golden file's text: one record per diagram and embedding, one
    line each."""
    diagrams, embeddings = orbit_sets()
    rng = random.Random(2025)
    records = [[label, diagram_record(rng, d)] for label, d in diagrams]
    records += [[label, embedding_record(emb)] for label, emb in embeddings]
    lines = [json.dumps(_jsonable(r), separators=(",", ":")) for r in records]
    return "[\n" + ",\n".join(lines) + "\n]\n"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(orbit_json())

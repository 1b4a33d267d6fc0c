"""The golden decompositions and measures: the streams, blocks and measures
of `classify_measures` on seeded random sequences, the tower verdicts of
`classify_subdiagram` on seeded random nested pairs, and what the
decomposition readers give on two truncated windows.
`tests/test_golden.py` compares them byte for byte with
`tests/golden/decompositions.json`; running this file rewrites that file:

    PYTHONPATH=src python tests/golden_decompositions.py

For a classified sequence a record holds valid_from, lcm_period, each
stream's members at every level 0..P+L, the block assignment per level,
and per measure its verdict, atom and ray0, the ray marked exact or
approximate.  For a nested pair it holds, per result, the base stream,
the tower verdict and its witness, and the base measure's verdict, atom
and ray0.  A window's record holds what the readers give up to
max(horizon, valid_from), the last level they answer for.
"""

import json
import pathlib
import random

from adic.cones import EigvecSeqApprox, ExactEigvec
from adic.errors import NoFiniteBaseMeasure
from adic.frobenius import stream_decompose
from adic.matrixseq import GenMatrix, Truncated
from adic.measures import classify_measures, classify_subdiagram
from adic.verdict import _frac, _jsonable

from conftest import random_ep_sequence, random_nested_pair

GOLDEN = pathlib.Path(__file__).parent / "golden" / "decompositions.json"

GOLDEN_MEAN_WINDOW = Truncated([GenMatrix.from_lists(
    ("0", "1"), ("0", "1"), [[1, 1], [1, 0]])] * 3)

# horizon 1, but its extension is reduced to valid_from 2
SHORT_WINDOW = Truncated([GenMatrix.from_lists(
    ("a", "b", "c"), ("a", "b", "c"), [[1, 0, 0], [1, 0, 0], [0, 1, 0]])])


def measure_record(e):
    """Verdict, atom and ray0 of one ergodic measure."""
    ray = e.ray
    kind = ("exact" if isinstance(ray, ExactEigvec) else
            "approximate" if isinstance(ray, EigvecSeqApprox) else None)
    ray0 = (None if ray is None else
            [[a, _frac(v)] for a, v in sorted(ray.ray0.items())])
    return {"stream": e.stream.index, "verdict": e.verdict.to_json(),
            "atom": _jsonable(e.atom), "ray": kind, "ray0": ray0}


def levels_record(dec, levels):
    """Stream members and block assignment at each of `levels`."""
    return {
        "members": [[sorted(s.members_at(k)) for k in levels]
                    for s in dec.streams],
        "blocks": [[[a, kind, i] for a, (kind, i)
                    in sorted(dec.block_assignment(k).items())]
                   for k in levels]}


def classified_record(seq):
    cls = classify_measures(seq)
    dec = cls.decomposition
    P, L = dec.valid_from, dec.lcm_period
    out = {"valid_from": P, "lcm_period": L}
    out.update(levels_record(dec, range(P + L + 1)))
    out["measures"] = [measure_record(e) for e in cls.measures]
    return out


def tower_record(base, ambient):
    try:
        results = classify_subdiagram(base, ambient)
    except NoFiniteBaseMeasure:
        return "NoFiniteBaseMeasure"
    return [{"base_stream": r.base_measure.stream.index,
             "verdict": r.verdict.value, "witness": _jsonable(r.witness),
             "base_measure": measure_record(r.base_measure)}
            for r in results]


def window_record(window):
    dec = stream_decompose(window)
    top = max(dec.horizon, dec.valid_from)
    out = {"horizon": dec.horizon, "valid_from": dec.valid_from,
           "lcm_period": dec.lcm_period, "provisional": dec.provisional,
           "certificates": _jsonable(dec.certificates)}
    levels = range(top + 1)
    out.update(levels_record(dec, levels))
    out["stream_of"] = [[[a, dec.stream_of(k, a)]
                         for a in sorted(dec.block_assignment(k))]
                        for k in levels]
    out["pool"] = [sorted(dec.pool_members_at(k)) for k in levels]
    out["block_matrices"] = [dec.block_matrix(k).to_lists()
                             for k in range(top)]
    out["measures"] = [measure_record(e)
                       for e in classify_measures(window).measures]
    return out


def decompositions_json():
    """The golden file's text: a list of labelled records, one a line."""
    records = []
    rng = random.Random(2023)
    for j in range(300):
        seq = random_ep_sequence(rng, max_dim=8, max_period=3, max_prefix=2)
        records.append(["classified %d" % j, classified_record(seq)])
    rng = random.Random(2024)
    for j in range(300):
        pair = random_nested_pair(rng, max_dim=4, max_period=3)
        records.append(["tower %d" % j, tower_record(*pair)])
    records.append(["window golden-mean x3",
                    window_record(GOLDEN_MEAN_WINDOW)])
    records.append(["window short", window_record(SHORT_WINDOW)])
    return "[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(decompositions_json())

"""The golden primitivity certificates: the `to_json` of every stream and
pool certificate of `stream_decompose` on a fixed seeded set of reduced
sequences.  `tests/test_golden.py` compares them byte for byte with
`tests/golden/certificates.json`; running this file rewrites that file:

    PYTHONPATH=src python tests/golden_certificates.py

The set: the n-cycles with a loop, n = 8..68; block chains of 2..30
primitive 2x2 blocks; and random reduced sequences with dim <= 10.
"""

import json
import pathlib
import random

from adic.frobenius import stream_decompose
from adic.matrixseq import from_int_matrices
from adic.verdict import _jsonable

from conftest import cycle_with_loop, labels, random_reduced_sequence

GOLDEN = pathlib.Path(__file__).parent / "golden" / "certificates.json"

PRIMITIVE_2X2 = ([[1, 1], [1, 0]], [[1, 1], [1, 1]], [[0, 1], [1, 1]],
                 [[2, 1], [1, 1]], [[1, 2], [1, 0]], [[1, 1], [2, 1]])


def block_chain(rng, blocks, period):
    """`blocks` primitive 2x2 diagonal blocks, each feeding the next through
    one 0-1 coupling drawn afresh for each of the `period` cycle matrices."""
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


def certificate_set():
    """(label, reduced eventually periodic sequence) pairs, seeded."""
    rng = random.Random(2021)
    out = [("cycle n=%d" % n, cycle_with_loop(n)) for n in range(8, 69)]
    out += [("chain %d blocks" % b, block_chain(rng, b, rng.randint(1, 3)))
            for b in range(2, 31)]
    out += [("random %d" % j,
             random_reduced_sequence(rng, max_dim=10, max_period=4,
                                     max_prefix=3)) for j in range(150)]
    return out


def certificates_json():
    """The golden file's text: one record per sequence of the set."""
    records = [{"label": label,
                "certificates": _jsonable(stream_decompose(seq).certificates)}
               for label, seq in certificate_set()]
    return json.dumps(records, indent=1) + "\n"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(certificates_json())

from fractions import Fraction

import pytest

from adic.diagram import enumerate_paths
from adic.matrixseq import GenMatrix, EventuallyPeriodic, reduce_sequence
from adic.vershik import cyclic_return_time


def labels(d):
    return tuple(str(j) for j in range(d))


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
        ok = True
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

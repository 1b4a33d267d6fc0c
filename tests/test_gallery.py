from fractions import Fraction

import pytest

from adic.errors import NotNested
from adic.measures import classify_measures
from adic.frobenius import stream_decompose
from adic.gallery import (
    odometer,
    chacon,
    ics,
    rotation_diagram,
    cf_convergents,
    rotation_lambda_interval,
    nested_rotation,
    nested_odometer,
    three_cycle,
    seven_matrix_example,
    EXAMPLES,
)


def test_odometer_variants():
    assert odometer(2).seq.matrix(0).entry("0", "0") == 2
    d = odometer([2, 3])
    assert d.seq.matrix(0).entry("0", "0") == 2
    assert d.seq.matrix(1).entry("0", "0") == 3
    assert d.seq.matrix(2) == d.seq.matrix(0)
    e = odometer(([5], [2]))
    assert e.seq.prefix_len == 1
    assert e.seq.matrix(0).entry("0", "0") == 5


def test_chacon_expected_classification():
    d = chacon()
    cls = classify_measures(d.seq)
    assert len(cls.measures) == d.expected["ergodic_measures"]
    nonatomic = [e for e in cls.measures if not e.atomic][0]
    atomic = [e for e in cls.measures if e.atomic][0]
    assert nonatomic.ray.ray0 == d.expected["distinguished_ray"]
    assert atomic.ray.ray0 == d.expected["atomic_ray"]


def test_ics_cover_expected():
    d = ics("cover")
    cls = classify_measures(d.seq)
    assert cls.finite_count == d.expected["finite"]
    assert cls.infinite_count == d.expected["infinite"]


def test_ics_triadic_embedding_indices():
    emb = ics("triadic")
    assert emb.base_indices(0, "0", "0") == [0, 2]
    assert emb.base_indices(7, "0", "0") == [0, 2]


def test_ics_rejects_unknown_model():
    with pytest.raises(ValueError):
        ics("nope")


def test_rotation_diagram_alternates():
    d = rotation_diagram(([1, 2], [3]))
    m0, m1 = d.seq.matrix(0), d.seq.matrix(1)
    assert m0.to_lists() == [[1, 0], [1, 1]]
    assert m1.to_lists() == [[1, 2], [0, 1]]
    # odd cycle is stretched to even matrix period
    assert d.seq.period == 2


def test_cf_convergents_fibonacci():
    conv = cf_convergents([], [1], 6)
    assert conv == [Fraction(1), Fraction(2), Fraction(3, 2),
                    Fraction(5, 3), Fraction(8, 5), Fraction(13, 8)]


def test_lambda_interval_golden_ratio():
    lo, hi = rotation_lambda_interval(1, 20)
    assert hi - lo <= Fraction(1, 10 ** 6)
    # phi is the positive root of x^2 = x + 1
    assert lo * lo < lo + 1
    assert hi * hi > hi + 1


def test_lambda_interval_silver_ratio():
    lo, hi = rotation_lambda_interval(2, 20)
    assert hi - lo <= Fraction(1, 10 ** 6)
    # 1 + sqrt(2): (x - 1)^2 = 2
    assert (lo - 1) ** 2 < 2
    assert (hi - 1) ** 2 > 2


def test_nested_rotation_golden_in_silver_is_infinite():
    r = nested_rotation(1, 2)
    assert r.verdict.is_no()
    assert r.detail["lambda_period_eigenvalue"] == (1, 5)
    assert r.detail["lambda_hat_period_eigenvalue"] == (2, 8)


def test_nested_rotation_equal_is_finite():
    assert nested_rotation([1, 2], [1, 2]).verdict.is_yes()
    assert nested_rotation(2, ([3], [2])).verdict.is_yes()


def test_nested_rotation_rejects_bad_quotients():
    with pytest.raises(NotNested):
        nested_rotation(3, 2)


def test_nested_odometer_verdicts():
    assert nested_odometer(2, [2, 1]).verdict.is_no()
    assert nested_odometer(([3], [2]), 2).verdict.is_yes()
    with pytest.raises(NotNested):
        nested_odometer(2, 3)


def test_three_cycle():
    assert three_cycle().seq.matrix(0).entry("2", "0") == 3


def test_seven_matrix_expected_streams():
    d = seven_matrix_example()
    assert len(stream_decompose(d.seq).streams) == d.expected["streams"]


def test_examples_registry_constructs():
    for name, make in EXAMPLES.items():
        obj = make()
        assert obj is not None

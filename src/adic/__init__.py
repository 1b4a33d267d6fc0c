"""Exact-arithmetic analysis of layered multigraph (Bratteli) diagrams:
matrix sequences over labeled alphabets, stream decomposition and Frobenius
normal forms, invariant measure classification, and successor (adic)
dynamics.  All verdict-relevant arithmetic uses exact rationals."""

from .errors import AdicError
from .verdict import Verdict
from .matrixseq import (
    GenMatrix,
    EventuallyPeriodic,
    Truncated,
    from_int_matrices,
    constant,
    partial_product,
    submatrix_leq,
    gather,
    reduce_sequence,
    is_reduced,
    is_primitive,
    wielandt_bound,
)
from .diagram import (
    BratteliDiagram,
    StableOrder,
    substitution_order,
    count_words,
    enumerate_paths,
    word_metric,
)
from .frobenius import (
    stream_decompose,
    frobenius_form,
)
from .cones import (
    extreme_count,
    simplex_image,
    periodic_pf,
    exact_ray,
    compare_perron,
)
from .measures import (
    CentralMeasure,
    canonical_cover,
    two_by_two_series,
    is_distinguished,
    classify_measures,
    classify_subdiagram,
    parry_measure_stationary,
)
from .vershik import (
    LazyPath,
    successor,
    predecessor,
    extremal_path,
    extremal_paths,
    SubdiagramEmbedding,
    anti_lex_rank,
    return_time,
    cyclic_return_time,
    kac_partial_sum,
    simulate_orbit,
)
from . import gallery

__version__ = "0.1.0"

__all__ = [
    "AdicError",
    "Verdict",
    "GenMatrix",
    "EventuallyPeriodic",
    "Truncated",
    "from_int_matrices",
    "constant",
    "partial_product",
    "submatrix_leq",
    "gather",
    "reduce_sequence",
    "is_reduced",
    "is_primitive",
    "wielandt_bound",
    "BratteliDiagram",
    "StableOrder",
    "substitution_order",
    "count_words",
    "enumerate_paths",
    "word_metric",
    "stream_decompose",
    "frobenius_form",
    "extreme_count",
    "simplex_image",
    "periodic_pf",
    "exact_ray",
    "compare_perron",
    "CentralMeasure",
    "canonical_cover",
    "two_by_two_series",
    "is_distinguished",
    "classify_measures",
    "classify_subdiagram",
    "parry_measure_stationary",
    "LazyPath",
    "successor",
    "predecessor",
    "extremal_path",
    "extremal_paths",
    "SubdiagramEmbedding",
    "anti_lex_rank",
    "return_time",
    "cyclic_return_time",
    "kac_partial_sum",
    "simulate_orbit",
    "gallery",
]

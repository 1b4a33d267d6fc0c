"""Completeness of the benchmark tracer: once installed, no wrapped function
is reachable unwrapped from an `adic.*` namespace (including the modules
that import it by name), traced ops record spans, and `uninstall()` puts
every original back.

    PYTHONPATH=src python -m pytest -q perfbench/test_tracer.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import adic  # noqa: E402
from adic import matrixseq, measures  # noqa: E402
from adic.diagram import StableOrder  # noqa: E402

import tracer as tracing  # noqa: E402

# functions imported by name into other modules: defining module.function
# -> the modules holding their own binding
BY_NAME = {
    ("matrixseq", "partial_product"): ("cones", "diagram", "frobenius",
                                       "vershik"),
    ("matrixseq", "is_primitive"): ("cones", "frobenius"),
    ("matrixseq", "reduce_sequence"): ("frobenius", "measures"),
    ("frobenius", "stream_decompose"): ("measures",),
    ("diagram", "check_word"): ("measures", "vershik"),
}


def _wrappers_left():
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "adic" or name.startswith("adic.")):
            continue
        for attr, obj in vars(mod).items():
            if hasattr(obj, "__traced_original__"):
                found.append("%s.%s" % (name, attr))
    for cls in (matrixseq.GenMatrix, StableOrder):
        for attr, obj in vars(cls).items():
            if hasattr(obj, "__traced_original__"):
                found.append("%s.%s" % (cls.__name__, attr))
    return found


def test_install_wraps_every_binding_and_uninstall_restores():
    originals = {(m, f): getattr(getattr(adic, m), f) for m, f in BY_NAME}
    mul = matrixseq.GenMatrix.mul
    t = tracing.Tracer().install()
    try:
        assert t.unwrapped_bindings() == []
        for (m, f), holders in BY_NAME.items():
            for holder in (m,) + holders:
                bound = getattr(getattr(adic, holder), f)
                assert bound.__traced_original__ is originals[(m, f)], \
                    "adic.%s.%s is not wrapped" % (holder, f)
        assert adic.partial_product.__traced_original__ is \
            originals[("matrixseq", "partial_product")]
        assert matrixseq.GenMatrix.mul.__traced_original__ is mul

        # spans are recorded only inside an op
        golden = matrixseq.constant([[1, 1], [1, 0]], ["0", "1"])
        measures.classify_measures(golden)
        assert t.spans == []
        t.begin_op(0)
        measures.classify_measures(golden)
        t.end_op()
        names = {t.names[s[tracing.NAME]] for s in t.spans}
        assert {"measures.classify_measures", "frobenius.stream_decompose",
                "matrixseq.reduce_sequence", "matrixseq.is_primitive",
                "matrixseq.partial_product", "matrixseq.mul",
                "cones.stream_period_eigenvalue", "cones.eigvec_sequences",
                "sympy.charpoly", "sympy.real_roots"} <= names
        assert all(s[tracing.OP] == 0 for s in t.spans)
    finally:
        t.uninstall()
    assert _wrappers_left() == []
    for (m, f), holders in BY_NAME.items():
        for holder in (m,) + holders:
            assert getattr(getattr(adic, holder), f) is originals[(m, f)]
    assert matrixseq.GenMatrix.mul is mul


def test_unwrapped_binding_is_reported():
    original = adic.cones.partial_product
    t = tracing.Tracer().install()
    try:
        wrapper = adic.cones.partial_product
        adic.cones.partial_product = original
        try:
            assert t.unwrapped_bindings() == ["adic.cones.partial_product"]
        finally:
            adic.cones.partial_product = wrapper
    finally:
        t.uninstall()
    assert adic.cones.partial_product is original

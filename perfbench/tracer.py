"""Outside-in span tracing of the `adic` layers.

`install()` replaces every public function of the traced modules, a few
methods (`GenMatrix.mul` and the `StableOrder` lookups) and four sympy entry
points with timing wrappers.  A function imported by name into another
module is patched there too: every binding in an `adic.*` namespace that
still holds an original is replaced, and `unwrapped_bindings()` reports any
that were missed.  Nothing under `src/` is edited; `uninstall()` restores
the originals.

A span is recorded only while an op is open (`begin_op`/`end_op`).  Spans
live in memory as lists `[name_id, start, end, parent, op, outer_name,
extra]` and are summarized by `layer_metrics()` or written out by
`write_spans()`.  `outer_name` is false when the span sits inside another
span of the same function; `extra` says whether the call repeated arguments
already seen in the op, for the functions in FINGERPRINTS.
"""

import functools
import gzip
import inspect
import sys
import time

TRACED_MODULES = ("matrixseq", "diagram", "frobenius", "cones", "measures",
                  "vershik")

ORDER_METHODS = ("incoming", "position", "class_size", "is_max", "is_min",
                 "next_edge", "prev_edge", "min_edge_into", "max_edge_into")

NAME, START, END, PARENT, OP, OUTER_NAME, EXTRA = range(7)


def _sympy_targets():
    import sympy
    from sympy.core.evalf import EvalfMixin
    from sympy.matrices.matrixbase import MatrixBase
    return [("sympy.charpoly", MatrixBase, "charpoly"),
            ("sympy.real_roots", sympy.Poly, "real_roots"),
            ("sympy.evalf", EvalfMixin, "evalf"),
            ("sympy.equals", sympy.Expr, "equals")]


def _adic_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "adic" or name.startswith("adic."))]


class Tracer:
    """Span recorder plus the patches that feed it; see the module doc."""

    def __init__(self):
        self.spans = []
        self.names = []
        self._name_ids = {}
        self._active = []        # per name: open spans of that name
        self._stack = []         # indices of the open spans
        self.op = None
        self._seen = {}          # fingerprints of the open op, per name
        self.counters = {}       # counter -> value, from result hooks
        self._originals = {}     # id(original) -> original
        self._patches = []       # (owner, attribute, previous value)

    # -- identifiers -------------------------------------------------------

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return nid

    # -- ops -----------------------------------------------------------------

    def begin_op(self, op):
        self.op = op
        self._seen = {}

    def end_op(self):
        self.op = None
        self._seen = {}

    def count(self, counter, value=1):
        self.counters[counter] = self.counters.get(counter, 0) + value

    def note_max(self, counter, value):
        if value > self.counters.get(counter, 0):
            self.counters[counter] = value

    def _repeat(self, nid, key, keep):
        """True when `key` was already seen for this name in the open op;
        `keep` holds the argument objects so their ids stay unique."""
        seen = self._seen.setdefault(nid, {})
        if key in seen:
            return True
        seen[key] = keep
        return False

    # -- wrappers ------------------------------------------------------------

    def wrap(self, name, fn, fingerprint=None, on_result=None,
             adic_callers_only=False):
        """A timing wrapper around fn.  With adic_callers_only, only calls
        made from `adic` code are recorded (not sympy's calls to itself)."""
        nid = self.name_id(name)
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None or (adic_callers_only and not sys._getframe(
                    1).f_globals.get("__name__", "").startswith("adic.")):
                return fn(*args, **kwargs)
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                   not active[nid], None]
            if fingerprint is not None:
                key, keep = fingerprint(*args, **kwargs)
                rec[EXTRA] = self._repeat(nid, key, keep)
            stack.append(len(spans))
            spans.append(rec)
            active[nid] += 1
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                active[nid] -= 1
            if on_result is not None:
                on_result(self, result)
            return result

        traced.__traced_original__ = fn
        self._originals[id(fn)] = fn
        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target and patch every binding of it."""
        import adic
        from adic.matrixseq import GenMatrix
        from adic.diagram import StableOrder
        wrappers = {}
        for short in TRACED_MODULES:
            mod = getattr(adic, short)
            for attr, obj in sorted(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = "%s.%s" % (short, attr)
                    wrappers[id(obj)] = self.wrap(
                        name, obj, FINGERPRINTS.get(name),
                        RESULT_HOOKS.get(name))
        self._patch(GenMatrix, "mul", self.wrap(
            "matrixseq.mul", GenMatrix.__dict__["mul"],
            on_result=RESULT_HOOKS["matrixseq.mul"]))
        for meth in ORDER_METHODS:
            self._patch(StableOrder, meth, self.wrap(
                "diagram.order." + meth, StableOrder.__dict__[meth]))
        for name, owner, attr in _sympy_targets():
            self._patch(owner, attr, self.wrap(
                name, owner.__dict__[attr], adic_callers_only=True))
        for mod in _adic_modules():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and \
                        wrappers[id(obj)].__traced_original__ is obj:
                    self._patch(mod, attr, wrappers[id(obj)])
        return self

    def uninstall(self):
        for owner, attr, previous in reversed(self._patches):
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        self._patches = []

    def unwrapped_bindings(self):
        """Places in `adic.*` namespaces (module attributes, class
        attributes, module-level containers, function defaults and
        closures) that still reach a wrapped original directly."""
        originals = self._originals
        found = []

        def visit(where, obj):
            if id(obj) in originals and originals[id(obj)] is obj:
                found.append(where)

        for mod in _adic_modules():
            for attr, obj in vars(mod).items():
                where = "%s.%s" % (mod.__name__, attr)
                visit(where, obj)
                if isinstance(obj, dict):
                    for k, v in obj.items():
                        visit("%s[%r]" % (where, k), v)
                elif isinstance(obj, (list, tuple)):
                    for i, v in enumerate(obj):
                        visit("%s[%d]" % (where, i), v)
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for cattr, cobj in vars(obj).items():
                        visit("%s.%s" % (where, cattr), cobj)
                if inspect.isfunction(obj) and \
                        not hasattr(obj, "__traced_original__"):
                    for i, v in enumerate(obj.__defaults__ or ()):
                        visit("%s default %d" % (where, i), v)
                    for i, cell in enumerate(obj.__closure__ or ()):
                        try:
                            visit("%s closure %d" % (where, i),
                                  cell.cell_contents)
                        except ValueError:      # empty cell
                            pass
        for name, owner, attr in _sympy_targets():
            visit("%s.%s" % (owner.__qualname__, attr), owner.__dict__[attr])
        return sorted(set(found))

    # -- output --------------------------------------------------------------

    def write_spans(self, path, origin):
        """One line per span: op, id, parent, name, start, end (microseconds
        from `origin`)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op\tid\tparent\tname\tstart_us\tend_us\n")
            for i, s in enumerate(self.spans):
                fh.write("%d\t%d\t%d\t%s\t%d\t%d\n" % (
                    s[OP], i, s[PARENT], self.names[s[NAME]],
                    (s[START] - origin) * 1e6, (s[END] - origin) * 1e6))


_MISSING = object()


# ---------------------------------------------------------------------------
# argument fingerprints and result hooks


def _fp_partial_product(seq, i, n):
    return (id(seq), i, n), seq


def _fp_stream(stream):
    return id(stream), stream


FINGERPRINTS = {
    "matrixseq.partial_product": _fp_partial_product,
    "cones.stream_period_eigenvalue": _fp_stream,
}


def _on_mul(tracer, result):
    if result.entries:
        tracer.note_max("mul_bits", max(result.entries.values()).bit_length())


def _on_exact_ray(tracer, result):
    tracer.count("exact_ray_hits", result is not None)


def _on_classify(tracer, result):
    from adic.cones import ExactEigvec
    for e in result.measures:
        if e.verdict.is_yes():
            tracer.count("finite_measures")
            tracer.count("finite_exact_rays", isinstance(e.ray, ExactEigvec))


def _on_decompose(tracer, result):
    tracer.count("streams", len(result.streams))


def _on_orbit(tracer, result):
    tracer.count("orbit_steps", result["steps_performed"])


RESULT_HOOKS = {
    "matrixseq.mul": _on_mul,
    "cones.exact_ray": _on_exact_ray,
    "measures.classify_measures": _on_classify,
    "frobenius.stream_decompose": _on_decompose,
    "vershik.simulate_orbit": _on_orbit,
}


# ---------------------------------------------------------------------------
# per-layer metrics


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, op_seconds):
    """Per-layer metrics over every recorded span.  `op_seconds` is the
    summed wall time of the traced ops, the base of every `op_share`.
    Returns {metric: (value, unit, base)}; `base` is the count a share is
    taken of, or None."""
    names, spans = tracer.names, tracer.spans
    child_time = {}
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + \
                s[END] - s[START]
    stats = {}
    for i, s in enumerate(spans):
        st = stats.setdefault(names[s[NAME]], {"calls": 0, "total": 0.0,
                                               "self": 0.0, "repeats": 0})
        d = s[END] - s[START]
        st["calls"] += 1
        if s[OUTER_NAME]:
            st["total"] += d
        st["self"] += d - child_time.get(i, 0.0)
        if s[EXTRA]:
            st["repeats"] += 1

    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    def union_time(prefixes):
        """Time covered by spans whose name starts with one of `prefixes`,
        counting nested ones once."""
        total = 0.0
        for s in spans:
            if not names[s[NAME]].startswith(prefixes):
                continue
            p = s[PARENT]
            while p >= 0 and not names[spans[p][NAME]].startswith(prefixes):
                p = spans[p][PARENT]
            if p < 0:
                total += s[END] - s[START]
        return total

    def counter(key):
        return tracer.counters.get(key, 0)

    refined = set()
    for s in spans:
        if names[s[NAME]] == "cones.periodic_pf" and s[PARENT] >= 0 and \
                names[spans[s[PARENT]][NAME]] == "measures.compare_streams":
            refined.add(s[PARENT])

    order = [n for n in stats if n.startswith("diagram.order.")]
    sympy_names = [n for n in stats if n.startswith("sympy.")]
    out = {}

    def put(metric, value, unit, base=None):
        out[metric] = (value, unit, base)

    put("matrixseq.mul.calls", get("matrixseq.mul", "calls"), "count")
    put("matrixseq.mul.self_s", get("matrixseq.mul", "self"), "s")
    put("matrixseq.mul.max_bits", counter("mul_bits"), "bits")
    pp = "matrixseq.partial_product"
    put(pp + ".calls", get(pp, "calls"), "count")
    put(pp + ".total_s", get(pp, "total"), "s")
    put(pp + ".repeat_share", _ratio(get(pp, "repeats"), get(pp, "calls")),
        "share", get(pp, "calls"))
    ip = "matrixseq.is_primitive"
    put(ip + ".calls", get(ip, "calls"), "count")
    put(ip + ".total_s", get(ip, "total"), "s")
    put(ip + ".op_share", _ratio(get(ip, "total"), op_seconds), "share")
    put("matrixseq.reduce_sequence.total_s",
        get("matrixseq.reduce_sequence", "total"), "s")
    sd = "frobenius.stream_decompose"
    put(sd + ".calls", get(sd, "calls"), "count")
    put(sd + ".self_s", get(sd, "self"), "s")
    put("frobenius.frobenius_form.total_s",
        get("frobenius.frobenius_form", "total"), "s")
    put("frobenius.streams", counter("streams"), "count")
    for name in ("cones.eigvec_sequences", "cones.simplex_image",
                 "cones.stream_exact_eigenvalue_expr", "cones.periodic_pf"):
        put(name + ".calls", get(name, "calls"), "count")
        put(name + ".total_s", get(name, "total"), "s")
    put("cones.in_convex_hull.calls", get("cones.in_convex_hull", "calls"),
        "count")
    put("cones.exact_ray.calls", get("cones.exact_ray", "calls"), "count")
    put("cones.exact_ray.hit_share",
        _ratio(counter("exact_ray_hits"), get("cones.exact_ray", "calls")),
        "share", get("cones.exact_ray", "calls"))
    pe = "cones.stream_period_eigenvalue"
    put(pe + ".calls", get(pe, "calls"), "count")
    put(pe + ".total_s", get(pe, "total"), "s")
    put(pe + ".repeat_share", _ratio(get(pe, "repeats"), get(pe, "calls")),
        "share", get(pe, "calls"))
    put("cones.op_share", _ratio(union_time(("cones.",)), op_seconds),
        "share")
    cs = "measures.compare_streams"
    put(cs + ".calls", get(cs, "calls"), "count")
    put(cs + ".total_s", get(cs, "total"), "s")
    put(cs + ".refine_share", _ratio(len(refined), get(cs, "calls")),
        "share", get(cs, "calls"))
    put(cs + ".op_share", _ratio(get(cs, "total"), op_seconds), "share")
    put("measures.classify_measures.self_s",
        get("measures.classify_measures", "self"), "s")
    put("measures.canonical_cover.total_s",
        get("measures.canonical_cover", "total"), "s")
    put("measures.exact_ray_share",
        _ratio(counter("finite_exact_rays"), counter("finite_measures")),
        "share", counter("finite_measures"))
    ar = "vershik.anti_lex_rank"
    put(ar + ".calls", get(ar, "calls"), "count")
    put(ar + ".self_s", get(ar, "self"), "s")
    put(ar + ".total_s", get(ar, "total"), "s")
    put("vershik.successor.calls", get("vershik.successor", "calls"), "count")
    put("vershik.successor.self_s", get("vershik.successor", "self"), "s")
    put("vershik.simulate_orbit.steps", counter("orbit_steps"), "count")
    put("vershik.rank_successor.op_share",
        _ratio(union_time(("vershik.anti_lex_rank", "vershik.successor")),
               op_seconds), "share")
    put("vershik.successor_order.op_share",
        _ratio(union_time(("vershik.successor", "diagram.order.")),
               op_seconds), "share")
    put("diagram.order.calls", sum(get(n, "calls") for n in order), "count")
    put("diagram.order.total_s", union_time(("diagram.order.",)), "s")
    put("diagram.check_word.calls", get("diagram.check_word", "calls"),
        "count")
    put("diagram.check_word.total_s", get("diagram.check_word", "total"), "s")
    put("sympy.calls", sum(get(n, "calls") for n in sympy_names), "count")
    put("sympy.total_s", sum(get(n, "total") for n in sympy_names), "s")
    put("trace.spans", len(spans), "count")
    return out

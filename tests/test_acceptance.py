"""Acceptance gate: one test per headline capability, at the stated
tolerances.  Everything on a verdict path is exact rational arithmetic;
the only tolerance below is the interval width in the rotation test."""

import ast
import pathlib
import random
from fractions import Fraction

import adic
from adic.matrixseq import (
    constant,
    from_int_matrices,
    gather,
    partial_product,
    is_primitive,
    wielandt_bound,
)
from adic.diagram import BratteliDiagram, enumerate_paths
from adic.frobenius import stream_decompose
from adic.cones import ExactEigvec, extreme_count
from adic.measures import (
    CentralMeasure,
    canonical_cover,
    two_by_two_series,
    classify_measures,
)
from adic.vershik import (
    LazyPath,
    SubdiagramEmbedding,
    anti_lex_rank,
    successor,
    kac_partial_sum,
)
from adic.gallery import (
    chacon,
    ics,
    nested_odometer,
    nested_rotation,
    rotation_lambda_interval,
    seven_matrix_example,
)

from conftest import (
    kac_partial_sum_brute,
    random_reduced_sequence,
    random_nested_pair,
)


def test_criterion_01_chacon_classification():
    cls = classify_measures(chacon().seq)
    assert len(cls.measures) == 2
    nonatomic = [e for e in cls.measures if not e.atomic]
    atomic = [e for e in cls.measures if e.atomic]
    assert len(nonatomic) == 1 and len(atomic) == 1
    assert nonatomic[0].verdict.is_yes()
    assert nonatomic[0].ray.ray0 == {"0": Fraction(1, 3),
                                     "1": Fraction(2, 3)}
    assert atomic[0].verdict.is_yes()
    assert atomic[0].ray.ray0 == {"0": Fraction(1), "1": Fraction(0)}
    # the atom is the path along the single self-loop at "0"
    assert atomic[0].atom["cycle_edges"] == [(0, "0", "0", 0)]
    assert atomic[0].atom["prefix_edges"] == []


def test_criterion_02_three_matrix_family():
    cls = classify_measures(constant([[2, 1], [0, 3]], ["0", "1"]))
    assert (cls.finite_count, cls.infinite_count) == (2, 0)
    cls = classify_measures(constant([[3, 1], [0, 2]], ["0", "1"]))
    assert (cls.finite_count, cls.infinite_count) == (1, 1)
    cls = classify_measures(constant([[1, 1], [0, 3]], ["0", "1"]))
    assert (cls.finite_count, cls.infinite_count) == (2, 0)
    assert sum(1 for e in cls.measures if e.atomic) == 1


def test_criterion_03_canonical_cover():
    cov = canonical_cover(constant([[2]], ["0"]), constant([[3]], ["0"]))
    m = cov.cover.matrix(0)
    prim = [a for a in m.rows if a != "0"][0]
    rows = [prim, "0"]
    assert [[m.entry(a, b) for b in rows] for a in rows] == [[3, 1], [0, 2]]
    rng = random.Random(101)
    done = 0
    while done < 100:
        base, amb = random_nested_pair(rng, max_dim=4, max_period=3)
        cov = canonical_cover(base, amb)
        for k in range(cov.cover.prefix_len + cov.cover.period):
            assert (cov.cover.matrix(k).entry_sum()
                    == 2 * amb.matrix(k).entry_sum())
        done += 1


def test_criterion_04_distinguished_series():
    res = two_by_two_series(2, 3, 1, n=40)
    assert res.verdict.is_yes() and res.limit == Fraction(3, 2)
    prev = None
    for n, s in enumerate(res.partial_sums):
        assert prev is None or s >= prev
        assert abs(s - Fraction(3, 2)) <= Fraction(2, 3) ** n * Fraction(3, 2)
        prev = s
    res = two_by_two_series(3, 2, 1, n=40)
    assert res.verdict.is_no()
    assert any(s > 10 ** 6 for s in res.partial_sums)


def test_criterion_05_nested_odometers():
    assert nested_odometer(2, [2, 1]).verdict.is_no()
    assert nested_odometer(([3, 4], [2]), 2).verdict.is_yes()


def test_criterion_06_nested_rotations():
    r = nested_rotation(1, 2)
    assert r.verdict.is_no()
    lo, hi = rotation_lambda_interval(1, 20)
    assert hi - lo <= Fraction(1, 10 ** 6)
    assert lo * lo < lo + 1 and hi * hi > hi + 1  # phi inside
    lo, hi = rotation_lambda_interval(2, 20)
    assert hi - lo <= Fraction(1, 10 ** 6)
    assert (lo - 1) ** 2 < 2 < (hi - 1) ** 2  # 1 + sqrt(2) inside
    assert nested_rotation([1, 2], [1, 2]).verdict.is_yes()


def test_criterion_07_stream_decomposition_golden():
    d = seven_matrix_example()
    dec = stream_decompose(d.seq)
    assert len(dec.streams) == 3
    for idx, cert in dec.certificates["streams"].items():
        assert cert.is_yes()
    got = [dec.block_matrix(k).to_lists() for k in range(7)]
    assert got == d.expected["block_matrices"]


def _any_tail(d, vertex, level):
    seq = d.seq
    P, T = seq.prefix_len, seq.period
    seen, edges, k, cur = {}, [], level, vertex
    while True:
        key = ((k - P) % T, cur)
        if key in seen:
            i = seen[key]
            return tuple(edges[:i]), tuple(edges[i:])
        seen[key] = len(edges)
        m = seq.matrix(k)
        b = next(b for b in m.cols if m.entry(cur, b))
        edges.append((k, cur, b, 0))
        k += 1
        cur = b


def test_criterion_08_vershik_oracle_equivalence():
    rng = random.Random(808)
    done = 0
    while done < 50:
        seq = random_reduced_sequence(rng, max_dim=4)
        d = BratteliDiagram(seq)
        depth = 6
        classes = {}
        for w in enumerate_paths(seq, depth):
            classes.setdefault(w[-1][2], []).append(w)
        for words in classes.values():
            by_rank = sorted(words, key=lambda w: anti_lex_rank(d, w))
            assert [anti_lex_rank(d, w) for w in by_rank] \
                == list(range(len(words)))
            for r, w in enumerate(by_rank[:-1]):
                pad, cycle = _any_tail(d, w[-1][2], depth)
                p = LazyPath(d, list(w) + list(pad), tail_cycle=cycle)
                s = successor(p)
                # same tail above the change, next word in the brute order
                assert s.word(depth) == tuple(by_rank[r + 1])
        done += 1


def _finite_exact_measures(seq):
    cls = classify_measures(seq)
    return cls.seq, [e for e in cls.measures
                     if e.verdict.is_yes() and isinstance(e.ray, ExactEigvec)]


def test_criterion_09_measure_property_suite():
    rng = random.Random(909)
    done = 0
    while done < 100:
        seq = random_reduced_sequence(rng, max_dim=4)
        red, measures = _finite_exact_measures(seq)
        for e in measures:
            w = e.ray
            # additivity nu[w] = sum nu[we] for every cylinder to depth 8:
            # the mass depends only on the endpoint, so the identity is
            # w_k[a] = sum_b M_k(a,b) w_{k+1}[b] at each level and symbol
            for k in range(8):
                m = red.matrix(k)
                img = m.mul_vec(w.value(k + 1))
                for a in m.rows:
                    assert w.value(k).get(a, 0) == img.get(a, 0)
            # FC-invariance, spelled out on words at small depth
            mu = CentralMeasure(red, w)
            by_end = {}
            for word in enumerate_paths(red, 3):
                by_end.setdefault(word[-1][2], set()).add(
                    mu.cylinder_mass(list(word)))
            for masses in by_end.values():
                assert len(masses) == 1
        done += 1
    # gathering invariance: the ray restricted to the gathering times is an
    # eigenvector sequence of the gathered diagram
    rng = random.Random(910)
    done = 0
    while done < 30:
        seq = random_reduced_sequence(rng, max_dim=4)
        red, measures = _finite_exact_measures(seq)
        if not measures:
            continue
        times = [0] + sorted(rng.sample(range(1, 9), rng.randint(2, 4)))
        g = gather(red, times=times)
        for e in measures:
            w = e.ray
            for j in range(len(times) - 1):
                img = g.matrix(j).mul_vec(w.value(times[j + 1]))
                for a in g.matrix(j).rows:
                    assert w.value(times[j]).get(a, 0) == img.get(a, 0)
        done += 1


def test_criterion_10_extreme_count_bounds():
    rng = random.Random(1010)
    done = 0
    while done < 100:
        seq = random_reduced_sequence(rng, max_dim=4)
        liminf = seq.liminf_alphabet_size()
        for depth in range(1, 9):
            count, _ = extreme_count(seq, depth)
            assert count <= liminf
        done += 1
    # strictly positive single matrices: one measure by the Wielandt bound
    rng = random.Random(1011)
    for _ in range(20):
        dim = rng.randint(1, 4)
        labels = [str(j) for j in range(dim)]
        mat = [[rng.randint(1, 3) for _ in range(dim)] for _ in range(dim)]
        seq = constant(mat, labels)
        bound = wielandt_bound(dim)
        assert is_primitive(seq).is_yes()
        count, _ = extreme_count(seq, bound)
        assert count == 1


def test_criterion_11_kac_cross_check():
    # infinite tower: base [2] inside ambient [3]
    emb = ics("triadic")
    cls = classify_measures(emb.base_seq)
    mu = CentralMeasure(cls.seq, cls.measures[0].ray)
    prev = Fraction(0)
    exceeded = None
    for depth in range(1, 26):
        s = kac_partial_sum(emb, mu, depth)
        assert s >= prev
        prev = s
        if exceeded is None and s > 10 ** 3:
            exceeded = depth
    assert exceeded is not None and exceeded <= 25
    assert kac_partial_sum(emb, mu, 4) == kac_partial_sum_brute(emb, mu, 4)
    # finite tower: base and ambient differ at one initial level only
    amb = from_int_matrices([[[3]], [[2]]], cycle_from=1,
                            labels=[("0",), ("0",), ("0",)])
    emb = SubdiagramEmbedding(BratteliDiagram(amb), constant([[2]], ["0"]))
    period = emb.base_seq.period  # representation period of the pair
    depth = period * 10
    mass = kac_partial_sum(emb, mu, depth)
    assert mass == Fraction(3, 2)  # tower mass, by hand: 3 / 2
    assert kac_partial_sum(emb, mu, depth + period) == mass
    assert kac_partial_sum_brute(emb, mu, 4) == mass


def test_meta_verdicts_carry_reverifiable_witnesses():
    # every Yes/No verdict on the classification path has a witness that
    # re-verifies independently of the code that produced it
    for mat in ([[2, 1], [0, 3]], [[3, 1], [0, 2]], [[1, 1], [0, 3]]):
        cls = classify_measures(constant(mat, ["0", "1"]))
        for e in cls.measures:
            assert e.verdict.is_decided()
            assert e.verdict.witness
            if isinstance(e.ray, ExactEigvec):
                assert e.ray.check()
    # primitivity: re-verify every recorded positivity power by hand
    seq = constant([[1, 1], [1, 0]], ["0", "1"])
    v = is_primitive(seq)
    assert v.is_yes()
    assert v.witness["positive_after"]
    for k, n in v.witness["positive_after"].items():
        prod = partial_product(seq, k, k + n - 1)
        assert all(prod.entry(a, b) > 0 for a in prod.rows
                   for b in prod.cols)
    # rotation verdicts: re-verify the eigenvalue data in the witness.
    # The No verdict is certified by (t2 + sqrt(D2))/2 > (t1 + sqrt(D1))/2;
    # with t2 >= t1 and D2 >= D1 (strictly somewhere) that is immediate.
    r = nested_rotation(1, 2)
    (t1, D1) = r.detail["lambda_period_eigenvalue"]
    (t2, D2) = r.detail["lambda_hat_period_eigenvalue"]
    assert t2 >= t1 and D2 >= D1 and (t2 > t1 or D2 > D1)


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so internal guards must raise
    package = pathlib.Path(adic.__file__).parent
    found = ["%s:%d" % (path.name, node.lineno)
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_package_has_no_unused_imports():
    # in the package, the tests and the demos, every module-level import
    # binding is read somewhere in its module; __init__.py re-exports, and
    # the benchmark tracer wraps vershik's binding of partial_product by name
    exempt = {("vershik", "partial_product")}
    package = pathlib.Path(adic.__file__).parent
    root = pathlib.Path(__file__).parent.parent
    paths = [p for d in (package, root / "tests", root / "demos")
             for p in sorted(d.glob("*.py"))]
    found = []
    for path in paths:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used and (path.stem, name) not in exempt:
                        found.append("%s.%s" % (path.stem, name))
    assert found == []


def test_private_path_constructor_is_used_only_by_rebuild():
    # LazyPath._derived skips the public constructor's checks; its one user
    # is vershik._rebuild, which only assembles paths that are valid by
    # construction (see its docstring and tests/test_vershik.py)
    package = pathlib.Path(adic.__file__).parent
    found = []

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Attribute, ast.Name)) and \
                    getattr(child, "attr", getattr(child, "id", None)) \
                    == "_derived":
                found.append((module, where))
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            visit(child, module, inner)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    assert found == [("vershik", "_rebuild")]


def test_level_layout_is_read_only_through_index():
    # `seq.index(k)` is the one map from a level to a stored matrix: outside
    # matrixseq.py nothing subscripts a sequence's prefix or cycle list or
    # asks for a cycle phase
    package = pathlib.Path(adic.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "matrixseq.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Subscript):
                target = node.value
            elif isinstance(node, ast.Call):
                target = node.func
            else:
                continue
            if isinstance(target, ast.Attribute) and (
                    target.attr == "phase" if isinstance(node, ast.Call)
                    else target.attr in ("prefix", "cycle")):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


def test_decomposition_tables_are_read_only_in_frobenius():
    # a decomposition's memberships, reach and blocks are resolved once in
    # frobenius.py; every other module reads them through its accessors
    # (members_at, stream_of, reach, pool_members_at, block_assignment, ...)
    # and no private attribute of a decomposition or a stream
    dec = stream_decompose(constant([[1, 1], [0, 1]], ["0", "1"]))
    private = {name for obj in (dec, dec.streams[0], type(dec),
                                type(dec.streams[0]))
               for name in vars(obj)
               if name.startswith("_") and not name.startswith("__")}
    assert {"_table", "_at"} <= private
    package = pathlib.Path(adic.__file__).parent
    here = pathlib.Path(__file__).parent
    found = []
    for path in sorted(package.glob("*.py")) + sorted(here.glob("*.py")) \
            + sorted((here.parent / "demos").glob("*.py")):
        if path.name == "frobenius.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in private:
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


def test_stream_and_decomposition_readers_have_callers():
    # every public method and property of Stream and StreamDecomposition
    # is read somewhere in src/, tests/, demos/ or perfbench/ outside its
    # own definition, so a reader left without callers fails here
    package = pathlib.Path(adic.__file__).parent
    root = pathlib.Path(__file__).parent.parent
    frobenius = ast.parse((package / "frobenius.py").read_text())
    readers = {f.name: f for node in frobenius.body
               if isinstance(node, ast.ClassDef)
               and node.name in ("Stream", "StreamDecomposition")
               for f in node.body if isinstance(f, ast.FunctionDef)
               and not f.name.startswith("_")}
    assert {"members_at", "starting_time", "reach", "frobenius_form"} \
        <= readers.keys()
    own = {id(node) for name, f in readers.items() for node in ast.walk(f)
           if isinstance(node, ast.Attribute) and node.attr == name}
    read = set()
    for path in sorted(package.glob("*.py")) + sorted(
            p for d in ("tests", "demos", "perfbench")
            for p in (root / d).glob("*.py")):
        tree = frobenius if path.name == "frobenius.py" and \
            path.parent == package else ast.parse(path.read_text())
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and id(node) not in own}
    assert sorted(readers.keys() - read) == []


def _kept_as_api(readme):
    """The names listed as "- `name`: paper object" under README's "Paper
    objects kept as API" heading."""
    lines = readme.splitlines()
    start = lines.index("## Paper objects kept as API") + 1
    kept = {}
    for line in lines[start:]:
        if line.startswith("#"):
            break
        if line.startswith("- `"):
            name, _, obj = line[3:].partition("`: ")
            kept[name] = obj
    return kept


def test_public_names_have_callers():
    # every name in adic.__all__ is referenced, as a name or an attribute,
    # from src/adic outside its own definition and outside __init__.py, or
    # from demos/ or perfbench/; a name only tests reach stays public only
    # as an entry of README's "Paper objects kept as API", which names the
    # paper object it implements
    package = pathlib.Path(adic.__file__).parent
    root = pathlib.Path(__file__).parent.parent
    referenced = set()
    for path in sorted(package.glob("*.py")) + sorted(
            p for d in ("demos", "perfbench") for p in (root / d).glob("*.py")):
        if path == package / "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        own = {id(node) for d in tree.body
               if isinstance(d, (ast.FunctionDef, ast.ClassDef))
               for node in ast.walk(d)
               if getattr(node, "id", getattr(node, "attr", None)) == d.name}
        referenced |= {getattr(node, "id", getattr(node, "attr", None))
                       for node in ast.walk(tree)
                       if isinstance(node, (ast.Name, ast.Attribute))
                       and id(node) not in own}
    kept = _kept_as_api((root / "README.md").read_text())
    assert all(kept.values())
    assert sorted(kept.keys() - set(adic.__all__)) == []
    assert sorted(set(adic.__all__) - referenced - kept.keys()) == []


def _trees(*dirs):
    """{path: AST} of the package's modules and of the .py files in each
    named directory of the repository root."""
    package = pathlib.Path(adic.__file__).parent
    root = package.parent.parent
    paths = sorted(package.glob("*.py")) + sorted(
        p for d in dirs for p in (root / d).glob("*.py"))
    return {p: ast.parse(p.read_text()) for p in paths}


def test_module_level_names_have_callers():
    # every public function and class defined at module level in src/adic
    # (the CLI's commands excepted) is referenced, as a name or an
    # attribute, outside its own definition and outside __init__.py, from
    # src/adic, demos/ or perfbench/, or is one of README's "Paper objects
    # kept as API"
    root = pathlib.Path(adic.__file__).parent.parent.parent
    trees = _trees("demos", "perfbench")
    referenced = set()
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        own = {id(node) for d in tree.body
               if isinstance(d, (ast.FunctionDef, ast.ClassDef))
               for node in ast.walk(d)
               if getattr(node, "id", getattr(node, "attr", None)) == d.name}
        referenced |= {getattr(node, "id", getattr(node, "attr", None))
                       for node in ast.walk(tree)
                       if isinstance(node, (ast.Name, ast.Attribute))
                       and id(node) not in own}
    referenced |= _kept_as_api((root / "README.md").read_text()).keys()
    defined = {(path.stem, d.name) for path, tree in trees.items()
               if path.parent.name == "adic"
               and path.name not in ("__init__.py", "cli.py")
               for d in tree.body
               if isinstance(d, (ast.FunctionDef, ast.ClassDef))
               and not d.name.startswith("_")}
    assert ("vershik", "min_word_into") in defined
    assert sorted(name for name in defined if name[1] not in referenced) \
        == []


def test_core_class_members_have_callers():
    # every public method and property of the core classes is read, as an
    # attribute, somewhere in src/, tests/, demos/ or perfbench/ outside
    # its own definition; the benchmark's tracer wraps StableOrder's
    # methods by name, so perfbench's strings count as reads too
    core = {"GenMatrix", "StableOrder", "BratteliDiagram", "LazyPath",
            "SubdiagramEmbedding", "PerronRoot", "ExactEigvec"}
    trees = _trees("tests", "demos", "perfbench")
    members = {(c.name, f.name): f for tree in trees.values()
               for c in tree.body
               if isinstance(c, ast.ClassDef) and c.name in core
               for f in c.body if isinstance(f, ast.FunctionDef)
               and not f.name.startswith("_")}
    assert {c for c, _ in members} == core
    own = {id(node) for (_, name), f in members.items()
           for node in ast.walk(f)
           if isinstance(node, ast.Attribute) and node.attr == name}
    read = set()
    for path, tree in trees.items():
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and id(node) not in own}
        if path.parent.name == "perfbench":
            read |= {node.value for node in ast.walk(tree)
                     if isinstance(node, ast.Constant)
                     and isinstance(node.value, str)}
    assert sorted(key for key in members if key[1] not in read) == []


def test_optional_parameters_are_passed():
    # every optional parameter of a public function, of a public method of
    # a public class or of a public class's constructor in src/adic is
    # passed, by keyword or by position, in some call of that name in src/,
    # tests/, demos/ or perfbench/ (calls inside the definition itself do
    # not count); a call with *args or **kwargs passes every position or
    # keyword.  Calls match by name only.  A constructor's calls are
    # `ClassName(...)` and the `cls(...)` calls in the class's own
    # classmethods
    trees = _trees("tests", "demos", "perfbench")
    defs = []  # (name, definition, leading positions the caller omits)
    calls = {}
    for path, tree in trees.items():
        if path.parent.name != "adic":
            continue
        for d in tree.body:
            if isinstance(d, ast.FunctionDef) and not d.name.startswith("_"):
                defs.append((d.name, d, 0))
            if isinstance(d, ast.ClassDef) and not d.name.startswith("_"):
                methods = [f for f in d.body if isinstance(f, ast.FunctionDef)]
                defs += [(f.name, f, 0 if any(
                    getattr(x, "id", None) == "staticmethod"
                    for x in f.decorator_list) else 1)
                    for f in methods if not f.name.startswith("_")]
                defs += [(d.name, f, 1) for f in methods
                         if f.name == "__init__"]
                for f in methods:
                    if any(getattr(x, "id", None) == "classmethod"
                           for x in f.decorator_list):
                        calls.setdefault(d.name, []).extend(
                            node for node in ast.walk(f)
                            if isinstance(node, ast.Call)
                            and getattr(node.func, "id", None)
                            == f.args.args[0].arg)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id",
                               getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    assert ("substitution_order", 0) in {(n, s) for n, _, s in defs}
    assert {"StableOrder", "LazyPath", "Verdict"} <= {
        n for n, f, _ in defs if f.name == "__init__"}
    found = []
    for name, f, skip in defs:
        params = f.args.posonlyargs + f.args.args
        optional = [(p.arg, i - skip) for i, p in enumerate(params)
                    if i >= len(params) - len(f.args.defaults)]
        optional += [(p.arg, None) for p, default
                     in zip(f.args.kwonlyargs, f.args.kw_defaults)
                     if default is not None]
        inside = {id(node) for node in ast.walk(f)}
        for arg, i in optional:
            if not any(
                    any(k.arg in (arg, None) for k in call.keywords)
                    or i is not None and (len(call.args) > i or any(
                        isinstance(a, ast.Starred) for a in call.args))
                    for call in calls.get(name, ())
                    if id(call) not in inside):
                found.append("%s(%s)" % (name, arg))
    assert found == []

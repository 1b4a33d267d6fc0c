"""Command-line front end.

JSON diagrams in, JSON or aligned-table reports out.  Exit codes: 0 when
every verdict in the report is decided and every ray is exact, 2 when some
verdict is Undecided, some ray is a depth-limited approximation (marked
"exact": false), the decomposition is provisional (truncated input,
marked "provisional": true) or a requested cylinder mass cannot be given
(the measure has no ray), 1 on input or usage errors.  All numbers in
reports are exact fraction strings "p/q" (or integers); no floats.
"""

import json
import sys

import click

from .errors import AdicError, ShapeMismatch
from .verdict import _frac, _jsonable
from . import matrixseq
from .diagram import BratteliDiagram, check_word
from .frobenius import stream_decompose
from .cones import extreme_count, EigvecSeqApprox
from .measures import _classification, canonical_cover, CentralMeasure
from . import vershik
from . import gallery

DEFAULT_DEPTH = 64
# the keys `adic example --emit` writes for a subdiagram embedding
EMBEDDING_KEYS = {"ambient", "base", "base_edge_indices"}


def _load_diagram(path):
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise AdicError("%s: JSON nested too deeply" % path) from None
    if isinstance(obj, dict) and EMBEDDING_KEYS <= obj.keys():
        raise AdicError("%s is a subdiagram embedding, not a diagram; its "
                        "\"ambient\" object is the diagram" % path)
    return BratteliDiagram.from_json(obj)


def _flatten(report, prefix=""):
    for k, v in report.items():
        key = prefix + str(k)
        if isinstance(v, dict):
            for line in _flatten(v, key + "."):
                yield line
        else:
            yield (key, v)


def _write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n")


def _output(report, as_json):
    payload = _jsonable(report)
    if as_json:
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
    else:
        rows = list(_flatten(payload))
        width = max((len(k) for k, _ in rows), default=0)
        for k, v in rows:
            click.echo("%-*s  %s" % (width, k, json.dumps(v, sort_keys=True)
                                     if isinstance(v, list) else v))


def _finish(report, as_json, undecided=False):
    _output(report, as_json)
    sys.exit(2 if undecided else 0)


def _measure_entry(m):
    """The report keys of an ergodic measure, in this order: its level-0
    ray if it has one, its verdict, "exact": false when the ray is a
    depth-limited approximation, and the horizon of an Undecided
    verdict."""
    entry = {}
    if m.ray is not None:
        entry["ray"] = {a: _frac(v) for a, v in sorted(m.ray.ray0.items())}
    v = m.verdict
    entry["verdict"] = ("Finite" if v.is_yes() else
                        "Infinite" if v.is_no() else "Undecided")
    if isinstance(m.ray, EigvecSeqApprox):
        entry["exact"] = False
    if not v.is_decided():
        entry["horizon"] = v.horizon
    return entry


def _edge_token(tok, level):
    """Parse an edge token "a>b.i" at the given level."""
    try:
        src, rest = tok.split(">", 1)
        tgt, idx = rest.rsplit(".", 1)
        return (level, src, tgt, int(idx))
    except ValueError:
        raise AdicError("bad edge token %r: expected a>b.i" % tok) from None


def parse_path(diagram, spec):
    """Path specs: comma-separated edge tokens "a>b.i", optionally followed
    by "|min", "|max", "|min@vertex" / "|max@vertex" (a level-0 vertex for
    an empty prefix, else the prefix's end), or "|cycle:tok,tok,..." for an
    explicit periodic tail; with no tail the path is the finite word."""
    spec = spec.strip()
    if "|" in spec:
        head, tailspec = spec.split("|", 1)
    else:
        head, tailspec = spec, ""
    edges = []
    head = head.strip()
    if head:
        for k, tok in enumerate(head.split(",")):
            edges.append(_edge_token(tok.strip(), k))
    if tailspec:
        if tailspec.startswith("cycle:"):
            cyc = []
            for j, tok in enumerate(tailspec[len("cycle:"):].split(",")):
                cyc.append(_edge_token(tok.strip(), len(edges) + j))
            return vershik.LazyPath(diagram, edges, cyc)
        rule, vertex = tailspec, None
        if "@" in tailspec:
            rule, vertex = tailspec.split("@", 1)
        if rule not in ("min", "max"):
            raise AdicError("unknown tail rule %r" % rule)
        return vershik.extremal_path(diagram, edges, rule, vertex)
    return vershik.LazyPath(diagram, edges)


def _edge_str(e):
    return "%s>%s.%d" % (e[1], e[2], e[3])


def _path_json(p):
    """A path's prefix, its tail cycle if it has one, and its edges at its
    first six levels; a finite word has only its own edges."""
    out = {"prefix": [_edge_str(e) for e in p.prefix_edges]}
    end = p.start + 6
    if p.tail_cycle is not None:
        out["tail_cycle"] = [_edge_str(e) for e in p.tail_cycle]
    else:
        end = min(end, p.tail_start)
    out["first_levels"] = [_edge_str(p.edge(k)) for k in range(p.start, end)]
    return out


@click.group()
def cli():
    """Exact-arithmetic analysis of layered multigraph diagrams and their
    successor dynamics."""


@cli.command()
@click.argument("diagram", type=click.Path(exists=True))
@click.option("--json", "as_json", is_flag=True)
@click.option("--emit", type=click.Path())
def decompose(diagram, as_json, emit):
    """Stream decomposition: streams, pool, and block matrices."""
    dec = stream_decompose(_load_diagram(diagram).seq)
    K = dec.valid_from
    certs = dec.certificates["streams"]
    report = {
        "command": "decompose",
        "streams": [
            {"index": s.index,
             "members_at_%d" % K: sorted(s.members_at(K)),
             "primitive": certs[s.index].to_json()}
            for s in dec.streams
        ],
        "pool_at_%d" % K: sorted(dec.pool_members_at(K)),
        "block_matrices": [dec.block_matrix(k).to_lists()
                           for k in range(K, K + dec.lcm_period + 1)
                           if dec.horizon is None or k < dec.horizon],
        "valid_from": K,
        "provisional": dec.provisional,
        "undecided": dec.provisional,
    }
    if emit:
        form = dec.frobenius_form()
        payload = matrixseq.to_json(form.form)
        payload["permutation"] = form.permutations
        payload["gathering_times"] = form.gathering_times
        _write_json(emit, payload)
    _finish(report, as_json, undecided=dec.provisional)


@cli.command()
@click.argument("diagram", type=click.Path(exists=True))
@click.option("--json", "as_json", is_flag=True)
def classify(diagram, as_json):
    """Ergodic measure classification: rays and Finite/Infinite verdicts."""
    d = _load_diagram(diagram)
    cls = _classification(d.seq)
    entries = []
    for m in cls.measures:
        # the table prints a list sorted by key, so the order here is free
        entry = {"stream": m.stream.index, "atomic": m.atomic,
                 **_measure_entry(m)}
        if m.atomic and m.atom:
            entry["atom"] = _jsonable(m.atom)
        entries.append(entry)
    report = {
        "command": "classify",
        "measures": entries,
        "finite": cls.finite_count,
        "infinite": cls.infinite_count,
        "undecided": sum("horizon" in e for e in entries),
    }
    provisional = cls.decomposition.provisional
    if provisional:
        report["provisional"] = True
    _finish(report, as_json, undecided=report["undecided"] > 0 or provisional
            or any("exact" in e for e in entries))


@cli.command()
@click.argument("base", type=click.Path(exists=True))
@click.argument("ambient", type=click.Path(exists=True))
@click.option("--json", "as_json", is_flag=True)
@click.option("--emit", type=click.Path())
def cover(base, ambient, as_json, emit):
    """Canonical cover of a nested pair: the doubled diagram."""
    b = _load_diagram(base)
    a = _load_diagram(ambient)
    cov = canonical_cover(b.seq, a.seq)
    payload = matrixseq.to_json(cov.cover)
    if emit:
        _write_json(emit, payload)
    report = {"command": "cover", "cover": payload}
    _finish(report, as_json)


@cli.command()
@click.argument("diagram", type=click.Path(exists=True))
@click.option("--ray", "ray_index", default=0, show_default=True,
              help="Index of the ergodic measure, in classification order.")
@click.option("--cylinder", "cyl", default="",
              help="Edge word 'a>b.i,a>b.i,...' from level 0.")
@click.option("--json", "as_json", is_flag=True)
def measure(diagram, ray_index, cyl, as_json):
    """Cylinder mass under one of the ergodic measures."""
    d = _load_diagram(diagram)
    # the classification builds no ray; only the one printed is built
    cls = _classification(d.seq)
    if not 0 <= ray_index < len(cls.measures):
        raise AdicError("no measure with index %d" % ray_index)
    m = cls.measures[ray_index]
    report = {"command": "measure", **_measure_entry(m)}
    if cyl:
        word = [_edge_token(tok.strip(), k)
                for k, tok in enumerate(cyl.split(","))]
        report["cylinder"] = [_edge_str(e) for e in check_word(d.seq, word)]
        if m.ray is not None:
            report["mass"] = _frac(
                CentralMeasure(d.seq, m.ray).cylinder_mass(word))
    # a measure with no ray has no mass to give
    _finish(report, as_json, undecided="horizon" in report
            or "exact" in report or bool(cyl) and m.ray is None)


@cli.command("count-ergodic")
@click.argument("diagram", type=click.Path(exists=True))
@click.option("--depth", default=DEFAULT_DEPTH, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def count_ergodic(diagram, depth, as_json):
    """Number of ergodic finite invariant measures (exact for eventually
    periodic diagrams, where --depth is not read; a count at --depth,
    capped at the last level, for a truncated file)."""
    d = _load_diagram(diagram)
    count, info = extreme_count(d.seq, depth)
    report = {"command": "count-ergodic", "count": count}
    report.update(_jsonable(info))
    _finish(report, as_json,
            undecided=not d.seq.is_eventually_periodic)


@cli.command()
@click.argument("diagram", type=click.Path(exists=True))
@click.option("--path", "path_spec", required=True)
@click.option("-n", "count", default=1, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def successor(diagram, path_spec, count, as_json):
    """Apply the successor map n times to a path."""
    if count < 0:
        raise ShapeMismatch("-n must be >= 0, got %d" % count)
    d = _load_diagram(diagram)
    p = parse_path(d, path_spec)
    steps = []
    cur = p
    for _ in range(count):
        nxt = vershik.successor(cur)
        if nxt is None:
            steps.append("NoSuccessor")
            break
        cur = nxt
        steps.append(_path_json(cur))
    report = {"command": "successor", "input": _path_json(p),
              "steps": steps}
    _finish(report, as_json)


@cli.command()
@click.argument("diagram", type=click.Path(exists=True))
@click.option("--path", "path_spec", required=True)
@click.option("--steps", default=100, show_default=True)
@click.option("--depth", default=3, show_default=True,
              help="Cylinder depth for visit statistics.")
@click.option("--json", "as_json", is_flag=True)
def simulate(diagram, path_spec, steps, depth, as_json):
    """Iterate the successor map and report exact visit frequencies."""
    d = _load_diagram(diagram)
    p = parse_path(d, path_spec)
    stats = vershik.simulate_orbit(p, steps, depth=depth)
    report = {
        "command": "simulate",
        "steps_performed": stats["steps_performed"],
        "frequencies": {",".join(_edge_str(e) for e in w): _frac(f)
                        for w, f in sorted(stats["frequencies"].items())},
        "change_levels": {str(k): v
                          for k, v in sorted(stats["change_levels"].items())},
        "truncated": stats["steps_performed"] < steps,
    }
    _finish(report, as_json)


@cli.command()
@click.argument("name")
@click.option("--json", "as_json", is_flag=True)
@click.option("--emit", type=click.Path())
def example(name, as_json, emit):
    """Write a built-in example diagram (see `adic example list`)."""
    if name == "list":
        _finish({"command": "example", "available": sorted(gallery.EXAMPLES)},
                as_json)
    if name not in gallery.EXAMPLES:
        raise AdicError("unknown example %r; try `adic example list`" % name)
    obj = gallery.EXAMPLES[name]()
    if isinstance(obj, vershik.SubdiagramEmbedding):
        payload = {
            "ambient": obj.ambient.to_json(),
            "base": matrixseq.to_json(obj.base_seq),
            "base_edge_indices": {str(k): v
                                  for k, v in obj.index_map.items()},
        }
    else:
        payload = obj.to_json()
    report = {"command": "example", "name": name, "diagram": payload}
    if getattr(obj, "expected", None):
        report["expected"] = _jsonable(obj.expected)
    if emit:
        _write_json(emit, payload)
    _finish(report, as_json)


def main():
    try:
        cli.main(standalone_mode=False, prog_name="adic")
    except SystemExit:
        raise
    except click.exceptions.Exit as exc:  # --help and friends
        sys.exit(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except click.Abort:
        sys.exit(1)
    except (AdicError, OSError, ValueError, KeyError) as exc:
        click.echo("error: %s" % exc, err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()

import json
import subprocess
import sys

import pytest

from adic import cones, gallery
from adic.frobenius import frobenius_form
from adic.matrixseq import GenMatrix, Truncated, constant
from adic.diagram import BratteliDiagram

from golden_cli import run as run_in_process


def run_cli(*args):
    """Run the CLI in a subprocess so exit codes go through main()."""
    code = "import sys; from adic.cli import main; main()"
    return subprocess.run([sys.executable, "-c", code] + list(args),
                          capture_output=True, text=True)


@pytest.fixture(scope="module")
def chacon_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "chacon.json"
    r = run_cli("example", "chacon", "--emit", str(path))
    assert r.returncode == 0
    return str(path)


@pytest.fixture(scope="module")
def truncated_file(tmp_path_factory):
    t = Truncated([GenMatrix.from_lists(("0", "1"), ("0", "1"),
                                        [[1, 1], [1, 0]])] * 3)
    path = tmp_path_factory.mktemp("cli") / "trunc.json"
    path.write_text(json.dumps(BratteliDiagram(t).to_json()))
    return str(path)


def test_example_list():
    r = run_cli("example", "list", "--json")
    assert r.returncode == 0
    names = json.loads(r.stdout)["available"]
    assert "chacon" in names and "seven-matrix" in names


def test_classify_chacon(chacon_file):
    r = run_cli("classify", chacon_file, "--json")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["finite"] == 2 and out["infinite"] == 0
    rays = sorted(m["ray"] for m in out["measures"]
                  if not m["atomic"])
    assert {"0": "1/3", "1": "2/3"} in rays


def test_classify_is_deterministic(chacon_file):
    a = run_cli("classify", chacon_file, "--json")
    b = run_cli("classify", chacon_file, "--json")
    assert a.stdout == b.stdout


def test_classify_cover_mixed_verdicts(tmp_path):
    emit = tmp_path / "cover.json"
    assert run_cli("example", "ics-cover", "--emit", str(emit)).returncode == 0
    r = run_cli("classify", str(emit), "--json")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["finite"] == 1 and out["infinite"] == 1


def test_classify_truncated_is_undecided(truncated_file):
    r = run_cli("classify", truncated_file, "--json")
    assert r.returncode == 2


@pytest.fixture(scope="module")
def rectangular_file(tmp_path_factory):
    # a truncated file whose last matrix is rectangular: nothing is decided
    t = Truncated([GenMatrix.from_lists(("0", "1"), ("0", "1"),
                                        [[1, 1], [0, 1]]),
                   GenMatrix.from_lists(("0", "1"), ("0",), [[1], [1]])])
    path = tmp_path_factory.mktemp("cli") / "rect.json"
    path.write_text(json.dumps(BratteliDiagram(t).to_json()))
    return str(path)


def test_decompose_truncated_rectangular_is_provisional(rectangular_file):
    # block matrices are reported only for levels the file defines; the
    # window ends at the valid-from level 2, so there are none
    r = run_cli("decompose", rectangular_file, "--json")
    assert r.returncode == 2, r.stderr
    out = json.loads(r.stdout)
    assert out["provisional"] is True and out["undecided"] is True
    assert out["valid_from"] == 2 and out["streams"] == []
    assert out["pool_at_2"] == ["0"] and out["block_matrices"] == []


def test_decompose_truncated_square_keeps_its_horizon(truncated_file):
    # the window is decomposed through its periodic extension, but block
    # matrices are reported only for the levels the file defines; the
    # window ends at the valid-from level 3, so there are none
    r = run_cli("decompose", truncated_file, "--json")
    assert r.returncode == 2, r.stderr
    out = json.loads(r.stdout)
    assert out["provisional"] is True and out["valid_from"] == 3
    assert out["block_matrices"] == []


def test_decompose_window_shorter_than_its_valid_from(tmp_path):
    # horizon 1, but the extension is reduced to valid_from 2: the report
    # still reads its anchor level 2, and prints no block matrices
    path = tmp_path / "short.json"
    path.write_text(json.dumps({
        "kind": "truncated", "alphabets": [["a", "b", "c"], ["a", "b", "c"]],
        "terms": [[[1, 0, 0], [1, 0, 0], [0, 1, 0]]]}))
    r = run_cli("decompose", str(path), "--json")
    assert r.returncode == 2, r.stderr
    out = json.loads(r.stdout)
    assert out["provisional"] is True and out["valid_from"] == 2
    assert [s["members_at_2"] for s in out["streams"]] == [["a"]]
    assert out["pool_at_2"] == [] and out["block_matrices"] == []


SHORT_WINDOW = {"kind": "truncated",
                "alphabets": [["a", "b", "c"], ["a", "b", "c"]],
                "terms": [[[1, 0, 0], [1, 0, 0], [0, 1, 0]]]}


def test_classify_reads_a_window_as_decompose_does(tmp_path):
    # classify and measure read the raw window through decompose's
    # continuation, which finds one stream {a}; reducing the window first
    # left it ending in a 3x2 matrix, with no measure at all
    path = tmp_path / "short.json"
    path.write_text(json.dumps(SHORT_WINDOW))
    r = run_cli("decompose", str(path), "--json")
    assert r.returncode == 2 and len(json.loads(r.stdout)["streams"]) == 1
    r = run_cli("classify", str(path), "--json")
    assert r.returncode == 2, r.stderr
    out = json.loads(r.stdout)
    assert out["provisional"] is True and out["undecided"] == 1
    assert out["measures"] == [{
        "atomic": False, "horizon": 1, "stream": 1, "verdict": "Undecided",
        "ray": {"a": "1/3", "b": "1/3", "c": "1/3"}}]
    r = run_cli("measure", str(path), "--ray", "0", "--json")
    assert r.returncode == 2, r.stderr
    assert json.loads(r.stdout)["verdict"] == "Undecided"


@pytest.mark.parametrize("name", ["chacon", "short"])
def test_count_ergodic_negative_depth_is_a_one_line_error(tmp_path,
                                                          chacon_file, name):
    path = tmp_path / "short.json"
    path.write_text(json.dumps(SHORT_WINDOW))
    r = run_cli("count-ergodic", chacon_file if name == "chacon"
                else str(path), "--depth", "-1")
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr.splitlines() == [
        "error: extreme counts need depth >= 0, got -1"]


def test_order_naming_an_unknown_target_is_a_one_line_error(tmp_path):
    path = tmp_path / "bad-order.json"
    path.write_text(json.dumps({"alphabets": [["0"]], "cycle": [[[1]]],
                                "order": {"cycle": [{"1": [["0", 0]]}]}}))
    r = run_cli("classify", str(path))
    assert r.returncode == 1
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "'1'" in lines[0]


def test_classify_provisional_is_marked(rectangular_file, truncated_file,
                                        chacon_file):
    r = run_cli("classify", rectangular_file, "--json")
    assert r.returncode == 2, r.stderr
    out = json.loads(r.stdout)
    assert out["provisional"] is True and out["measures"] == []
    r = run_cli("classify", truncated_file, "--json")
    assert r.returncode == 2 and json.loads(r.stdout)["provisional"] is True
    r = run_cli("classify", chacon_file, "--json")
    assert r.returncode == 0 and "provisional" not in json.loads(r.stdout)


def test_count_ergodic_truncated_is_undecided(truncated_file):
    r = run_cli("count-ergodic", truncated_file, "--json")
    assert r.returncode == 2
    out = json.loads(r.stdout)
    assert "exact" not in out


def test_count_ergodic_exact(chacon_file):
    r = run_cli("count-ergodic", chacon_file, "--json")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["count"] == 2 and out["exact"] == 2


def test_missing_file_is_an_error():
    r = run_cli("classify", "/nonexistent/diagram.json")
    assert r.returncode == 1


@pytest.mark.parametrize("doc", [
    {"alphabets": 5, "cycle": [[[1]]]},
    [1, 2],
    {"alphabets": [["0"]], "cycle": [[["x"]]]},
    {"alphabets": [["0"]], "cycle": [[[1.5]]]},
    {"alphabets": [["0"]], "cycle": [[[1]]], "order": [1]},
    {"alphabets": [["0"]], "cycle": [[[2]]],
     "order": {"cycle": [{"0": [1, 2]}]}},
    {"alphabets": [[0], [0]], "prefix": [[[1]]], "cycle": [[[1]]]},
    {"alphabets": ["ab"], "cycle": [[[1, 1], [1, 1]]]},
])
def test_malformed_diagram_is_a_one_line_error(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    r = run_cli("classify", str(path))
    assert r.returncode == 1
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_unknown_example_is_an_error():
    r = run_cli("example", "definitely-not-a-thing")
    assert r.returncode == 1
    assert "unknown example" in r.stderr


def test_decompose_chacon(chacon_file):
    r = run_cli("decompose", chacon_file, "--json")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert len(out["streams"]) == 2


def test_cover_command(tmp_path):
    dy = tmp_path / "dy.json"
    tri = tmp_path / "tri.json"
    run_cli("example", "dyadic", "--emit", str(dy))
    run_cli("example", "triadic", "--emit", str(tri))
    r = run_cli("cover", str(dy), str(tri), "--json")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["cover"]["cycle"] == [[[3, 1], [0, 2]]]


def test_measure_command(chacon_file):
    r = run_cli("measure", chacon_file, "--ray", "1",
                "--cylinder", "1>1.0", "--json")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["mass"] == "2/9"
    assert out["ray"] == {"0": "1/3", "1": "2/3"}


def test_successor_no_successor(chacon_file):
    r = run_cli("successor", chacon_file,
                "--path", "0>0.0|cycle:0>0.0", "--json")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["steps"] == ["NoSuccessor"]


def test_successor_steps(chacon_file):
    r = run_cli("successor", chacon_file,
                "--path", "1>1.0,1>1.1|min@1", "-n", "2", "--json")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert len(out["steps"]) == 2
    assert out["steps"][0]["first_levels"][0] == "1>1.1"


def test_successor_of_a_finite_word_lists_its_edges(chacon_file):
    # a word with no tail is a finite path: its report lists the word's own
    # edges, and each step is the next word of the same length
    _, out, err, code = run_in_process(["successor", chacon_file, "--path",
                                        "1>1.0", "--json"])
    assert (err, code) == ("", 0)
    assert json.loads(out)["input"] == {"prefix": ["1>1.0"],
                                        "first_levels": ["1>1.0"]}
    assert json.loads(out)["steps"] == [{"prefix": ["1>1.1"],
                                         "first_levels": ["1>1.1"]}]
    _, out, err, code = run_in_process(["successor", chacon_file, "--path",
                                        "1>1.0,1>1.1", "-n", "5", "--json"])
    assert (err, code) == ("", 0)
    assert [s["first_levels"] for s in json.loads(out)["steps"]] == [
        ["1>1.1", "1>1.1"], ["0>1.0", "1>1.1"], ["1>1.2", "1>1.1"],
        ["0>0.0", "0>1.0"], ["1>1.0", "1>1.2"]]


@pytest.mark.parametrize("spec, message", [
    ("|min@9", "start_vertex '9' is not a symbol of level 0"),
    ("1>1.0|min@0", "start_vertex '0' is not the prefix's end '1'")])
def test_extremal_tail_vertex_is_checked(chacon_file, spec, message):
    _, out, err, code = run_in_process(["successor", chacon_file, "--path",
                                        spec])
    assert (out, err, code) == ("", "error: %s\n" % message, 1)


@pytest.mark.parametrize("token", ["1>1", "1>1.x", "11.0", ""])
@pytest.mark.parametrize("command", ["successor", "measure"])
def test_bad_edge_token_is_a_one_line_error(chacon_file, command, token):
    args = (["--path", "1>1.0,%s|min" % token] if command == "successor"
            else ["--ray", "1", "--cylinder", "1>1.0,%s" % token])
    r = run_cli(command, chacon_file, *args)
    assert r.returncode == 1
    assert r.stderr.splitlines() == [
        "error: bad edge token %r: expected a>b.i" % token]


def test_simulate_dyadic_uniform(tmp_path):
    dy = tmp_path / "dy.json"
    run_cli("example", "dyadic", "--emit", str(dy))
    r = run_cli("simulate", str(dy), "--path", "|min@0",
                "--steps", "3", "--depth", "2", "--json")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert set(out["frequencies"].values()) == {"1/4"}
    assert out["truncated"] is False


@pytest.mark.parametrize("args, message", [
    (["simulate", "--steps", "-3"],
     "orbits need steps >= 0 and depth >= 0, got steps=-3, depth=3"),
    (["simulate", "--depth", "-2"],
     "orbits need steps >= 0 and depth >= 0, got steps=100, depth=-2"),
    (["successor", "-n", "-2"], "-n must be >= 0, got -2"),
])
def test_negative_step_counts_are_one_line_errors(tmp_path, args, message):
    dy = tmp_path / "dy.json"
    run_cli("example", "dyadic", "--emit", str(dy))
    r = run_cli(args[0], str(dy), "--path", "|min@0", *args[1:])
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.splitlines() == ["error: " + message]


def test_table_output_is_plain_text(chacon_file):
    r = run_cli("classify", chacon_file)
    assert r.returncode == 0
    assert "finite" in r.stdout
    assert not r.stdout.lstrip().startswith("{")


def test_classify_has_no_depth_or_bound(chacon_file):
    assert run_cli("classify", chacon_file, "--bound", "5").returncode == 1
    assert run_cli("classify", chacon_file, "--depth", "5").returncode == 1
    r = run_cli("classify", chacon_file, "--json")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert "depth" not in out and "bound" not in out


@pytest.mark.parametrize("command", ["classify", "cover"])
def test_deeply_nested_json_is_a_one_line_error(tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    args = [str(path)] * (2 if command == "cover" else 1)
    r = run_cli(command, *args)
    assert r.returncode == 1
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_approximate_ray_is_marked_inexact(tmp_path):
    # golden-mean's ray is irrational; the report gives a depth-limited
    # rational direction, which must not pass as exact
    gm = tmp_path / "gm.json"
    assert run_cli("example", "golden-mean", "--emit", str(gm)).returncode == 0
    r = run_cli("classify", str(gm), "--json")
    assert r.returncode == 2
    (entry,) = json.loads(r.stdout)["measures"]
    assert entry["exact"] is False and entry["verdict"] == "Finite"
    r = run_cli("measure", str(gm), "--ray", "0", "--cylinder", "0>0.0",
                "--json")
    assert r.returncode == 2
    assert json.loads(r.stdout)["exact"] is False


def test_exact_ray_reports_are_unchanged(chacon_file):
    def text(obj):
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
    r = run_cli("classify", chacon_file, "--json")
    assert r.returncode == 0
    assert r.stdout == text({
        "command": "classify", "finite": 2, "infinite": 0, "undecided": 0,
        "measures": [
            {"atom": {"cycle_edges": [[0, "0", "0", 0]], "prefix_edges": [],
                      "start": 0},
             "atomic": True, "ray": {"0": "1", "1": "0"}, "stream": 1,
             "verdict": "Finite"},
            {"atomic": False, "ray": {"0": "1/3", "1": "2/3"}, "stream": 2,
             "verdict": "Finite"}]})
    r = run_cli("measure", chacon_file, "--ray", "1", "--cylinder", "1>1.0",
                "--json")
    assert r.returncode == 0
    assert r.stdout == text({
        "command": "measure", "cylinder": ["1>1.0"], "mass": "2/9",
        "ray": {"0": "1/3", "1": "2/3"}, "verdict": "Finite"})


@pytest.mark.parametrize("command", ["classify", "decompose"])
def test_embedding_file_is_named_as_such(tmp_path, command):
    path = tmp_path / "tri.json"
    assert run_cli("example", "ics-triadic", "--emit",
                   str(path)).returncode == 0
    r = run_cli(command, str(path))
    assert r.returncode == 1
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "subdiagram embedding" in lines[0] and '"ambient"' in lines[0]


def test_count_ergodic_reads_only_the_classification(chacon_file,
                                                     truncated_file):
    r = run_cli("count-ergodic", chacon_file, "--json", "--depth", "0")
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"command": "count-ergodic", "count": 2,
                                    "exact": 2, "liminf_bound": 2,
                                    "streams": 2}
    r = run_cli("count-ergodic", truncated_file, "--json")
    assert r.returncode == 2
    assert set(json.loads(r.stdout)) == {"command", "count", "depth",
                                         "count_at_depth", "alphabet_bound"}


def test_measure_without_a_ray_reports_its_verdict(tmp_path):
    # stream 2 of this diagram is Infinite on an irrational root, so its
    # measure has no ray: the report gives the verdict as classify does,
    # and a cylinder's mass cannot be given, which exits 2
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(BratteliDiagram(constant(
        [[3, 1, 1], [0, 1, 1], [0, 1, 0]], ["0", "1", "2"])).to_json()))
    _, out, err, code = run_in_process(["measure", str(path), "--ray", "1"])
    assert (out, err, code) == ("command  measure\nverdict  Infinite\n", "",
                                0)
    _, out, err, code = run_in_process(["measure", str(path), "--ray", "1",
                                        "--cylinder", "0>1.0", "--json"])
    assert code == 2 and err == ""
    assert json.loads(out) == {"command": "measure", "cylinder": ["0>1.0"],
                               "verdict": "Infinite"}
    _, out, err, code = run_in_process(["measure", str(path), "--ray", "1",
                                        "--cylinder", "0>0.5"])
    assert code == 1 and out == "" and "index out of range" in err


def test_measure_builds_only_the_ray_it_prints(tmp_path, monkeypatch):
    # seven-matrix has three streams; `measure --ray 0` reports one of them
    # and so builds one ray, with one call to the ray builders
    calls = []

    def counting(name):
        fn = getattr(cones, name)

        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for name in ("exact_ray", "stream_base_ray", "eigvec_sequences"):
        monkeypatch.setattr(cones, name, counting(name))
    path = tmp_path / "seven.json"
    path.write_text(json.dumps(gallery.seven_matrix_example().to_json()))
    _, out, err, code = run_in_process(["measure", str(path), "--ray", "0",
                                        "--json"])
    assert (err, code) == ("", 0)
    assert json.loads(out)["verdict"] == "Finite"
    assert len(calls) == 1, calls


def test_measure_on_an_undecided_window_is_undecided(tmp_path):
    window = Truncated([GenMatrix.from_lists(
        ("0", "1"), ("0", "1"), [[1, 1], [1, 0]])] * 3)
    path = tmp_path / "window.json"
    path.write_text(json.dumps(BratteliDiagram(window).to_json()))
    _, out, err, code = run_in_process(["measure", str(path), "--ray", "0",
                                        "--json"])
    assert code == 2 and err == ""
    assert json.loads(out) == {"command": "measure", "horizon": 3,
                               "verdict": "Undecided"}


@pytest.mark.parametrize("name, counts", [
    ("chacon", (2, 0)), ("seven-matrix", (2, 1)), ("ics-cover", (1, 1)),
    ("golden-mean", (1, 0)), ("three-cycle", (3, 0)), ("dyadic", (1, 0)),
    ("triadic", (1, 0))])
def test_decompose_emits_a_frobenius_form_that_classifies_alike(
        tmp_path, name, counts):
    src, form = tmp_path / "in.json", tmp_path / "form.json"
    diagram = gallery.EXAMPLES[name]()
    src.write_text(json.dumps(diagram.to_json()))
    assert run_in_process(["decompose", str(src), "--emit",
                           str(form)])[3] == 0
    payload = json.loads(form.read_text())
    assert payload["gathering_times"] == \
        frobenius_form(diagram.seq).gathering_times
    if name == "seven-matrix":
        assert payload["gathering_times"] == [0, 5, 7, 9]
    for path in (src, form):
        out = json.loads(run_in_process(["classify", str(path),
                                         "--json"])[1])
        assert (out["finite"], out["infinite"]) == counts, path


def test_cover_emits_the_cover_it_reports(tmp_path):
    base, ambient = tmp_path / "dy.json", tmp_path / "tri.json"
    emit = tmp_path / "cover.json"
    base.write_text(json.dumps(gallery.EXAMPLES["dyadic"]().to_json()))
    ambient.write_text(json.dumps(gallery.EXAMPLES["triadic"]().to_json()))
    _, out, _, code = run_in_process(["cover", str(base), str(ambient),
                                      "--json", "--emit", str(emit)])
    assert code == 0
    assert json.loads(emit.read_text()) == json.loads(out)["cover"]
    out = json.loads(run_in_process(["classify", str(emit), "--json"])[1])
    assert (out["finite"], out["infinite"]) == (1, 1)

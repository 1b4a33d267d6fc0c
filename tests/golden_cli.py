"""The golden command-line outputs and demo outputs.  `tests/test_golden.py`
compares the CLI records byte for byte with `tests/golden/cli.json`, and
`tests/test_demos.py` compares each demo's stdout with
`tests/golden/demos.json`; running this file rewrites both files:

    PYTHONPATH=src python tests/golden_cli.py

A CLI record holds the stdout, stderr and exit code of one `adic` command,
run in-process through `adic.cli.main`.  The commands are `example --emit`
for each gallery example, then `decompose`, `classify`, `count-ergodic`,
`measure --ray 0` (with and without `--cylinder`), `successor -n 5` and
`simulate --steps 20`, plain and `--json`, on each gallery file and on the
two windows of `golden_decompositions.py`; `cover --json` on the paper's
nested pairs; the one-line errors of malformed files and options; and,
on chacon, `successor` of finite words and of extremal tails whose `@V`
is not a level-0 symbol or not the word's end.
Temporary paths are replaced by the token `<tmp>`.
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from unittest import mock

from adic.cli import main
from adic.diagram import BratteliDiagram
from adic.gallery import EXAMPLES, nested_odometer, nested_rotation

from golden_decompositions import GOLDEN_MEAN_WINDOW, SHORT_WINDOW

HERE = pathlib.Path(__file__).parent
GOLDEN = HERE / "golden" / "cli.json"
DEMOS_GOLDEN = HERE / "golden" / "demos.json"
DEMOS = sorted((HERE.parent / "demos").glob("*.py"))
TOKEN = "<tmp>"

MALFORMED = [
    {"alphabets": 5, "cycle": [[[1]]]},
    [1, 2],
    {"alphabets": [["0"]], "cycle": [[["x"]]]},
    {"alphabets": [["0"]], "cycle": [[[1]]], "order": [1]},
    {"alphabets": [["0"]], "cycle": [[[1]]],
     "order": {"cycle": [{"1": [["0", 0]]}]}},
]


def run(argv):
    """[argv, stdout, stderr, exit code] of `adic argv` run in-process."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with mock.patch.object(sys, "argv", ["adic"] + list(argv)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main()
        except SystemExit as exc:
            code = exc.code
    return [list(argv), out.getvalue(), err.getvalue(), code]


def first_edge(seq):
    """The token of the first edge at level 0, for `--cylinder`."""
    m = seq.matrix(0)
    a, b = min(m.entries)
    return "%s>%s.0" % (a, b)


def diagram_commands(path, seq):
    """The per-file commands, each plain and with --json."""
    v = seq.alphabet(0)[-1]
    commands = [
        ["decompose", path], ["classify", path], ["count-ergodic", path],
        ["measure", path, "--ray", "0"],
        ["measure", path, "--ray", "0", "--cylinder", first_edge(seq)],
        ["successor", path, "--path", "|min@%s" % v, "-n", "5"],
        ["simulate", path, "--path", "|min@%s" % v, "--steps", "20"],
    ]
    return [c + j for c in commands for j in ([], ["--json"])]


def cli_records(tmp):
    """The records, with `tmp` a scratch directory for the files."""
    records = []

    def write(name, obj):
        path = tmp / name
        path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
        return str(path)

    files = []
    for name in sorted(EXAMPLES):
        path = str(tmp / ("%s.json" % name))
        records.append(run(["example", name, "--emit", path]))
        files.append((path, EXAMPLES[name]()))
    for name, window in (("window-golden-mean.json", GOLDEN_MEAN_WINDOW),
                         ("window-short.json", SHORT_WINDOW)):
        files.append((write(name, BratteliDiagram(window).to_json()),
                      BratteliDiagram(window)))
    for path, obj in files:
        seq = obj.seq if isinstance(obj, BratteliDiagram) else obj.base_seq
        for argv in diagram_commands(path, seq):
            records.append(run(argv))

    pairs = [("dyadic-triadic", EXAMPLES["dyadic"](), EXAMPLES["triadic"]())]
    for label, pair in (
            ("odometer 2,1 in 2", nested_odometer(2, [2, 1])),
            ("odometer 2 in 3,4|2", nested_odometer(([3, 4], [2]), 2)),
            ("rotation 1 in 2", nested_rotation(1, 2)),
            ("rotation 1,2 in 1,2", nested_rotation([1, 2], [1, 2]))):
        pairs.append((label, pair.base, pair.ambient))
    for label, base, ambient in pairs:
        records.append(run(["cover", write(label + " base.json", base.to_json()),
                            write(label + " ambient.json", ambient.to_json()),
                            "--json"]))

    chacon = str(tmp / "chacon.json")
    short = files[-1][0]
    for j, doc in enumerate(MALFORMED):
        records.append(run(["classify", write("bad%d.json" % j, doc)]))
    records.append(run(["classify", write("deep.json",
                                          "[" * 200000 + "]" * 200000)]))
    records.append(run(["classify", str(tmp / "missing.json")]))
    records.append(run(["example", "no-such-example"]))
    for path in (chacon, short):
        records.append(run(["count-ergodic", path, "--depth", "-1"]))
        records.append(run(["count-ergodic", path, "--depth", "500"]))
    records.append(run(["simulate", chacon, "--path", "|min@0", "--steps",
                        "3", "--emit", str(tmp / "sim.json")]))
    for argv in (["--path", "1>1.0"], ["--path", "1>1.0,1>1.1", "-n", "2"]):
        for j in ([], ["--json"]):
            records.append(run(["successor", chacon] + argv + j))
    for spec in ("|min@9", "1>1.0|min@0"):
        records.append(run(["successor", chacon, "--path", spec]))
    return records


def cli_json():
    """The golden file's text: one record a line, temporary paths replaced
    by the token."""
    with tempfile.TemporaryDirectory() as tmp:
        records = cli_records(pathlib.Path(tmp))
        lines = [json.dumps(r).replace(json.dumps(tmp)[1:-1], TOKEN)
                 for r in records]
    return "[\n" + ",\n".join(lines) + "\n]\n"


def demo_stdout(demo):
    """The stdout of one demo, run as a script from the repository root."""
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    r = subprocess.run([sys.executable, str(demo)], cwd=HERE.parent, env=env,
                       capture_output=True, text=True, timeout=300, check=True)
    return r.stdout


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(cli_json())
    DEMOS_GOLDEN.write_text(json.dumps(
        {d.name: demo_stdout(d) for d in DEMOS}, indent=1, sort_keys=True)
        + "\n")

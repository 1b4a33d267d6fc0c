"""Benchmark of the `adic` library: four seeded workloads run through the
public API in one process, one thread, closed loop (each op starts when the
previous one has returned).

    python3 perfbench/run.py --workload classify --seed 1 --seconds 20 --trace 0

`--workload` is one of classify, towers, orbit, decompose, or `all` (each
workload in its own process, then one combined result line).  `--seconds`
sets the amount of work: the number of ops this workload completed in that
time when the benchmark was written, so every commit runs the same ops (see
workloads.py).  `--seed` sets how the inputs are presented and
`--corpus-seed` their structure.  With `--trace 0` the run reports the
end-to-end metrics; with `--trace 1` it wraps the library's layers (see
tracer.py) and reports per-layer metrics instead.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; a fuller record goes to perfbench/out/.

The program is imported from the `src/` directory next to this one; the run
fails (exit code 2, no result) when that directory is missing.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

OP_DEADLINE_S = 30       # an op (with its check) running longer has failed
OP_TIME_CAP_S = 100      # a pass stops once its ops have taken this long
SETUP_PROBES = 3         # fresh processes timed for setup_s
CHILD_TIMEOUT_S = 150
CALIBRATION_LOOPS = 1_000_000


class OpDeadline(BaseException):
    """Raised by SIGALRM inside an op that overran OP_DEADLINE_S.  A
    BaseException, so no `except Exception` inside the library eats it."""


def _on_alarm(signum, frame):
    raise OpDeadline()


def import_program():
    if not os.path.isfile(os.path.join(SRC, "adic", "__init__.py")):
        print("perfbench: no adic sources under %s" % SRC, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import adic
    import sympy  # noqa: F401  (adic imports it lazily; count it as set-up)
    if not os.path.abspath(adic.__file__).startswith(SRC + os.sep):
        print("perfbench: adic imported from %s, not %s"
              % (adic.__file__, SRC), file=sys.stderr)
        sys.exit(2)


# ---------------------------------------------------------------------------
# diagnostics


def calibration_s():
    """Wall time of a fixed pure-Python loop: host contention shows here."""
    t = time.perf_counter()
    s = 0
    for i in range(CALIBRATION_LOOPS):
        s += i * i % 7
    return time.perf_counter() - t


def git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def diagnostics(seed):
    return {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "calibration_s": calibration_s(),
    }


# ---------------------------------------------------------------------------
# set-up


def setup_probe(cmd):
    """CPU time (user + system) of one fresh process that imports the
    program and builds the corpus, then exits."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.stdout.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("set-up probe failed (exit %s)" % proc.returncode)
    return (after.ru_utime - before.ru_utime) + \
        (after.ru_stime - before.ru_stime)


def steal_s():
    """Time this VM's host ran others on our CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


# ---------------------------------------------------------------------------
# the timed pass


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    k = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[k]


def timed_pass(wl, tracer=None, limit=None):
    """Closed loop over the workload's inputs, one op at a time.  An op's
    time is the CPU time of this process while it runs (the ops are
    single-threaded computation without I/O, so this is their wall time
    minus what the host steals); its wall time is kept too.  The checks are
    not timed.  Stops early (and says so) once ops have taken
    OP_TIME_CAP_S, so a run always ends in time."""
    signal.signal(signal.SIGALRM, _on_alarm)
    latencies, failures, canon = [], [], []
    op_time = op_wall = 0.0
    steal = steal_s()
    for i, item in enumerate(wl.items[:limit]):
        if op_time > OP_TIME_CAP_S:
            failures.append({"op": i, "error": "op-time cap of %d s reached "
                             "after %d ops" % (OP_TIME_CAP_S, i)})
            break
        error = None
        if tracer is not None:
            tracer.begin_op(i)
        signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
        t, c = time.perf_counter(), time.process_time()
        try:
            result = wl.run(item)
        except OpDeadline:
            error = "op overran %d s" % OP_DEADLINE_S
        except Exception as exc:  # a failed op is counted, the run goes on
            error = "op raised %r" % (exc,)
        finally:
            dc, dt = time.process_time() - c, time.perf_counter() - t
            signal.setitimer(signal.ITIMER_REAL, 0)
            if tracer is not None:
                tracer.end_op()
        latencies.append(dc)
        op_time += dc
        op_wall += dt
        if error is None:
            signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
            try:
                canon.append(wl.check(item, result))
            except OpDeadline:
                error = "check overran %d s" % OP_DEADLINE_S
            except Exception as exc:  # oracle failures included
                error = "check failed: %s" % (exc,)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        if error is not None:
            canon.append(["failed", error])
            fail = {"op": i, "error": error}
            fail.update(item.describe())
            failures.append(fail)
    return {"latencies": latencies, "failures": failures, "canon": canon,
            "op_time": op_time, "op_wall": op_wall,
            "steal_s": steal_s() - steal}


def digest(canon):
    """sha256 over the canonical outputs of all ops."""
    h = hashlib.sha256()
    for value in canon:
        h.update(json.dumps(value, sort_keys=True, default=str).encode())
        h.update(b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# one workload


def end_to_end(res, setup_samples):
    lat = sorted(res["latencies"])
    n = len(lat)
    completed = n - len(res["failures"])
    p90 = percentile(lat, 0.9)
    return {
        "ops_per_s": (completed / res["op_time"], "ops/s",
                      "%d ops in %.2f s of op CPU time" % (completed,
                                                           res["op_time"])),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms", "n=%d" % n),
        "latency_p90_ms": (p90 * 1e3, "ms", "n=%d, %d beyond"
                           % (n, sum(1 for x in lat if x > p90))),
        "setup_s": (statistics.median(setup_samples), "s",
                    "median CPU time of %d fresh processes"
                    % len(setup_samples)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB", "ru_maxrss of this process"),
    }


def child_cmd(args, workload, *extra):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.corpus_seed is not None:
        cmd += ["--corpus-seed", str(args.corpus_seed)]
    return cmd + list(extra)


def untraced_op_time(args):
    """Op time of the same ops without tracing, in a fresh process."""
    out = subprocess.run(child_cmd(args, args.workload, "--reference"),
                         stdout=subprocess.PIPE, text=True, check=True,
                         timeout=CHILD_TIMEOUT_S).stdout
    metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
    return metrics["pass_s"]["value"]


def run_one(args):
    import_program()
    import workloads
    if args.corpus_seed is None:
        args.corpus_seed = workloads.CORPUS_SEED
    wl = workloads.WORKLOADS[args.workload](args.seed, args.seconds,
                                            args.corpus_seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    # the corpus lives for the whole run; keep the collector from walking it
    # during ops, so op cost does not grow with --seconds
    gc.collect()
    gc.freeze()
    if args.reference:              # untraced time of a traced run's ops
        res = timed_pass(wl, limit=wl.trace_ops)
        print(json.dumps({"correct": not res["failures"],
                          "attempted": len(res["latencies"]),
                          "failed": len(res["failures"]),
                          "metrics": {"pass_s": {"value": res["op_time"],
                                                 "unit": "s"}}}))
        return 0

    diag = diagnostics(args.seed)
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer().install()
        missed = tracer.unwrapped_bindings()
        res = timed_pass(wl, tracer=tracer, limit=wl.trace_ops)
        tracer.uninstall()
        report = tracing.layer_metrics(tracer, res["op_wall"])
        untraced = untraced_op_time(args)
        report["trace.overhead_share"] = (
            res["op_time"] / untraced - 1, "share",
            "traced %.2f s vs untraced %.2f s" % (res["op_time"], untraced))
        if missed:
            res["failures"].append({"op": None, "error": "unwrapped "
                                    "bindings: %s" % ", ".join(missed)})
    else:
        probe = child_cmd(args, args.workload, "--setup-probe")
        setup_samples = [setup_probe(probe) for _ in range(SETUP_PROBES)]
        res = timed_pass(wl)
        report = end_to_end(res, setup_samples)
    diag["op_wall_s"] = res["op_wall"]
    diag["op_cpu_s"] = res["op_time"]
    diag["steal_during_pass_s"] = res["steal_s"]
    diag["calibration_after_s"] = calibration_s()
    diag["loadavg_after"] = list(os.getloadavg())

    attempted = len(res["latencies"])
    failed = len(res["failures"])
    record = {
        "workload": args.workload, "seed": args.seed,
        "corpus_seed": args.corpus_seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted,
        "digest": digest(res["canon"]),
        "diagnostics": diag,
        "metrics": {k: {"value": v, "unit": u, "base": b}
                    for k, (v, u, b) in report.items()},
        "failures": res["failures"],
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (args.workload, args.seed,
                                                   args.trace))
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    if tracer is not None:
        tracer.write_spans(stem + ".spans.tsv.gz",
                           min((s[1] for s in tracer.spans), default=0.0))

    print("perfbench %s  seed=%d  corpus_seed=%d  trace=%d  (%s, %d ops)" % (
        args.workload, args.seed, args.corpus_seed, args.trace,
        "per-layer metrics" if args.trace else "end-to-end metrics",
        attempted))
    for key in ("python", "git_sha", "nproc", "loadavg", "calibration_s",
                "calibration_after_s", "op_wall_s", "op_cpu_s",
                "steal_during_pass_s"):
        print("  diag %-20s %s" % (key, diag[key]))
    for name, (value, unit, base) in report.items():
        print("  %-44s %14.6g %-6s %s" % (name, value, unit,
                                           "" if base is None else
                                           "(%s)" % (base,)))
    print("  %-44s %14.6g %-6s (%d of %d ops failed)"
          % ("error_rate", failed / attempted, "share", failed, attempted))
    print("  %-44s %s" % ("digest", record["digest"]))
    for f in res["failures"]:
        print("  FAILED %s" % json.dumps(f, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in report.items()},
    }))
    return 0


def run_all(args):
    """Each workload in its own process, then one JSON line with all their
    metrics, prefixed by workload name."""
    summary = {}
    correct, attempted, failed = True, 0, 0
    for name in ("classify", "towers", "orbit", "decompose"):
        out = subprocess.run(child_cmd(args, name, "--trace", str(args.trace)),
                             stdout=subprocess.PIPE, text=True, check=True,
                             timeout=180).stdout
        lines = out.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for metric, v in res["metrics"].items():
            summary["%s.%s" % (name, metric)] = v
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": summary}))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["classify", "towers", "orbit", "decompose", "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--corpus-seed", type=int, default=None,
                   help="seed of the corpus structure (default 0; 1009 is "
                   "the held-out corpus)")
    p.add_argument("--reference", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

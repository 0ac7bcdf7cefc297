#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seconds S]      # every workload, in turn
    python3 perfbench/run.py --selftest         # check the harness itself

Builds perfbench/bench.exe from the checkout with dune, runs it, echoes
its records and prints, as the last line of standard output, one JSON
object with the keys correct, attempted, failed and metrics.  The
metric names and units are checked against BENCHMARK.json: a run that
emits a different set is reported as incorrect.  See README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
SELFTEST_WORKLOAD = "comp-selftest"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    # The dune cache lives outside the checkout; keep every write inside.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed (dune exit %d)" % done.returncode)


def source_id():
    """The git commit when there is one, and always a digest of the
    sources the benchmark builds, so a record names the code it ran."""
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10).stdout.strip() or "none"
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "git=%s;src=%s" % (commit, digest.hexdigest()[:16])


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def run_exe(workload, seed, trace, deadline, check_verifier=False):
    """One bench.exe process; returns its last record.  The child is
    always waited for, and killed when it outlives the deadline."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    if check_verifier:
        cmd.append("--check-verifier")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return {"ok": False, "error": "timed out"}
    lines = out.splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        record = {"ok": False}
    if proc.returncode != 0:
        record = dict(record, ok=False, error="exit code %d" % proc.returncode)
    return record


def median(xs):
    return statistics.median(xs) if xs else None


def end_to_end(workload, seed, seconds, deadline, emit):
    """Samples, one process each, until the run has measured for
    `seconds`; every end-to-end metric is a median over them."""
    start = time.monotonic()
    samples = []
    while not samples or time.monotonic() - start < seconds:
        t0 = time.monotonic()
        s = run_exe(workload, seed, 0, deadline, check_verifier=not samples)
        emit(dict(s, i=len(samples) + 1))
        samples.append(s)
        # stop when one more sample as long as the last would overrun
        if time.monotonic() + (time.monotonic() - t0) > deadline:
            break
    done = [s for s in samples if "wall_s" in s]
    exacts = [s["exact"] for s in done]
    walls = [s["wall_s"] for s in done]
    setup = [t for s in samples for t in s.get("setup_s", [])]
    exact_repeats = all(e == exacts[0] for e in exacts)
    verifier_live = samples[0].get("verifier_rejects_corruption") is True
    emit({"kind": "summary",
          "wall_s": {"median": median(walls), "max": max(walls, default=None),
                     "samples": len(walls)},
          "setup_s": {"median": median(setup), "samples": len(setup)},
          "exact_repeats": exact_repeats,
          "verifier_rejects_corruption": verifier_live})
    if not done:
        fail("%s: no sample completed" % workload)
    e = exacts[0]
    failed = sum(1 for s in samples if not s.get("ok"))
    return {
        "correct": failed == 0 and exact_repeats and verifier_live,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {
            "wall_s": metric(median(walls), "s"),
            "setup_s": metric(median(setup), "s"),
            "peak_rss_mb": metric(median([s["peak_rss_mb"] for s in done]), "MB"),
            "power_reduction_pct": metric(e["power_reduction_pct"], "%"),
            "area_ratio": metric(e["area_ratio"], "ratio"),
            "delay_ratio": metric(e["delay_ratio"], "ratio"),
            "check_decided_share": metric(e["check_decided_share"], "ratio"),
        },
    }


def per_layer(workload, seed, deadline, emit):
    """One untraced and one traced sample, each in a fresh process; the
    traced one carries the per-layer metrics, their wall times give the
    tracing overhead."""
    untraced = run_exe(workload, seed, 0, deadline)
    emit(untraced)
    traced = run_exe(workload, seed, 1, deadline)
    emit(traced)
    if "wall_s" not in untraced or "metrics" not in traced:
        fail("%s: the traced run did not complete" % workload)
    metrics = traced["metrics"]
    traced_wall = metrics["trace.wall_s"]["value"]
    metrics["trace.overhead_pct"] = metric(
        100.0 * (traced_wall - untraced["wall_s"]) / untraced["wall_s"], "%")
    failed = sum(1 for r in (untraced, traced) if not r.get("ok"))
    return {
        "correct": failed == 0 and untraced["exact"] == traced["exact"],
        "attempted": 2,
        "failed": failed,
        "metrics": metrics,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload, seed, seconds, trace, commit, emit):
    deadline = time.monotonic() + RUN_TIMEOUT_S
    emit({"kind": "header", "workload": workload, "seed": seed,
          "trace": trace, "seconds": seconds, "nproc": os.cpu_count(),
          "loadavg_1m_start": os.getloadavg()[0], "commit": commit})
    if trace:
        result = per_layer(workload, seed, deadline, emit)
    else:
        result = end_to_end(workload, seed, seconds, deadline, emit)
    emit({"kind": "end", "loadavg_1m_end": os.getloadavg()[0]})
    return result


def check_result(result, trace):
    """Problems with a result's shape, or with its metric names and units
    as BENCHMARK.json declares them."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        problems.append("metric names/units differ: missing %s, extra %s, "
                        "unit mismatch %s" % (missing, extra, units))
    for name, m in result.get("metrics", {}).items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append("metric %s has no numeric value" % name)
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append("attempted must be a whole number >= 1")
    return problems


def print_record(record):
    print(json.dumps(record))


def one(args, commit):
    result = measure(args.workload, args.seed, args.seconds, args.trace,
                     commit, print_record)
    problems = check_result(result, args.trace)
    for p in problems:
        print("perfbench: " + p, file=sys.stderr)
    if problems:
        result["correct"] = False
    print(json.dumps(result))


def every_workload(args, commit):
    """Every end-to-end metric of every workload, by name with its unit.
    The workloads run one after another, never concurrently."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    all_ok = True
    for name in names:
        result = measure(name, args.seed, args.seconds, 0, commit,
                         lambda record: None)
        ok = result["correct"] and not check_result(result, 0)
        all_ok = all_ok and ok
        print("%s: correct=%s attempted=%d failed=%d" % (
            name, ok, result["attempted"], result["failed"]))
        for metric_name, m in result["metrics"].items():
            print("  %-22s %14.6g %s" % (metric_name, m["value"], m["unit"]))
    return 0 if all_ok else 1


def selftest(args, commit):
    """On a small circuit, both result shapes carry exactly the names and
    units of BENCHMARK.json, and the verifier rejects a corrupted output
    (every end-to-end run checks this on its first sample)."""
    failures = []
    for trace in (0, 1):
        records = []
        result = measure(SELFTEST_WORKLOAD, args.seed, 1, trace, commit,
                         records.append)
        failures += ["trace %d: %s" % (trace, p)
                     for p in check_result(result, trace)]
        if not result["correct"]:
            failures.append("trace %d: run not correct" % trace)
        if trace == 0 and not any(r.get("verifier_rejects_corruption")
                                  for r in records):
            failures.append("the verifier accepted a corrupted output")
    for f in failures:
        print("selftest: " + f, file=sys.stderr)
    print("selftest %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]
    build()
    commit = source_id()
    if args.selftest:
        sys.exit(selftest(args, commit))
    if args.workload is None:
        sys.exit(every_workload(args, commit))
    one(args, commit)


if __name__ == "__main__":
    main()

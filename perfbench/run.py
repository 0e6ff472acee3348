#!/usr/bin/env python3
"""End-to-end benchmark of the HERA resolver.

Runs one named workload from a seed and prints, as the last line of
stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json
(resolve_s, setup_s, peak_rss_mb, pair_f1); with --trace 1 they are the
per-layer ones from one traced run. The line before it is the
environment the numbers came from.

    python3 perfbench/run.py --workload movies-merge --seed 7 --seconds 20 --trace 0

Every run first builds perfbench_hera (and the library) from the
sources of this checkout into .bench_build/ (a no-op once built), then
generates the corpus from the seed (not timed). With --trace 0 it
resolves the corpus in fresh processes, one resolve each, until
--seconds is spent, and reports medians. Each resolve is checked:
status OK, outcome completed, and labels equal to the committed
reference (perfbench/references.json) when the seed has one, or to the
run's other resolves when it does not. A resolve that crashes, hangs
or prints no result counts as failed. Once the build has succeeded the
result line is always printed; the exit code is 0 only when it reads
"correct": true.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
BINARY = CMAKE_DIR / "perfbench_hera"

WORKLOADS = ("movies-merge", "ambiguous-join", "movies-edit")
MIN_RESOLVES = 3
# Every run must end well inside three minutes of the build.
HARD_LIMIT_S = 150.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds perfbench_hera; output goes to stderr."""
    # Compilers write temporaries to TMPDIR; keep them in the checkout.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    generator_files = ("build.ninja", "Makefile")
    if not any((CMAKE_DIR / f).exists() for f in generator_files):
        cmd = ["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(CMAKE_DIR), "--target",
                    "perfbench_hera", "-j", jobs], stdout=sys.stderr, check=True,
                   env=env)


def call(args, deadline):
    """Runs perfbench_hera and returns its last stdout line as JSON.

    A crash, a timeout at `deadline` (time.monotonic()) or output that is
    not JSON comes back as {"status": reason}, which no check accepts.
    """
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([str(BINARY)] + args, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"status": f"{args[0]} timed out after {timeout:.0f} s"}
    except OSError as err:
        return {"status": f"{args[0]} did not start: {err}"}
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        out = None
    if not isinstance(out, dict):
        return {"status": f"{args[0]} printed no result (exit {proc.returncode})"}
    if proc.returncode != 0 and out.get("status", "OK") == "OK":
        out["status"] = f"{args[0]} exited {proc.returncode}"
    return out


def git_commit():
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def source_sha256():
    """Digest of every file the build reads, so results from different
    sources are never compared even outside git."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", HERE / "src"):
        files += sorted(p for p in top.rglob("*") if p.is_file())
    files.append(HERE / "CMakeLists.txt")
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def load_references():
    with open(HERE / "references.json") as f:
        return json.load(f)


def check_resolve(out, ref, first, min_f1):
    """Returns the reasons a resolve failed its checks (empty if none)."""
    if out.get("status") != "OK":
        return [f"status {out.get('status')}"]
    problems = []
    if out["outcome"] != "completed":
        problems.append(f"outcome {out['outcome']}")
    expected = ref or first
    for key in ("labels_fp", "index_size", "merges"):
        if out.get(key) != expected[key]:
            problems.append(f"{key} {out.get(key)} != {expected[key]}")
    f1 = out.get("pair_f1", -1.0)
    if abs(f1 - expected["pair_f1"]) > 1e-12:
        problems.append(f"pair_f1 {f1} != {expected['pair_f1']}")
    if f1 < min_f1:
        problems.append(f"pair_f1 {f1} below floor {min_f1}")
    return problems


def timed_runs(args, corpus, ref, min_f1, deadline):
    """--trace 0: one resolve per process until --seconds is spent.

    Returns (attempted, failed, metric values); the values are medians
    over the resolves whose status is OK.
    """
    outs, failed = [], 0
    first = None
    start = time.monotonic()
    while True:
        out = call(["resolve", "--workload", args.workload, "--scale", args.scale,
                    "--corpus", str(corpus)], deadline)
        if first is None and out.get("status") == "OK":
            first = out
        problems = check_resolve(out, ref, first, min_f1)
        if problems:
            failed += 1
            log(f"resolve {len(outs) + 1} FAILED: {'; '.join(problems)}")
        outs.append(out)
        if "resolve_s" in out:
            log(f"resolve {len(outs)}: {out['resolve_s']:.3f} s, "
                f"peak {out['peak_rss_mb']:.1f} MB, labels {out.get('labels_fp')}, "
                f"|S| {out.get('index_size')}, merges {out.get('merges')}, "
                f"F1 {out.get('pair_f1')}")
        now = time.monotonic()
        ok = [o for o in outs if o.get("status") == "OK"]
        estimate = statistics.median(o["resolve_s"] for o in ok) if ok else 0.0
        if len(outs) >= MIN_RESOLVES and (not ok or now - start + estimate > args.seconds):
            break
        if now + 2 * estimate > deadline:
            break
    if not ok:
        return len(outs), failed, {}
    metrics = {
        "resolve_s": statistics.median(o["resolve_s"] for o in ok),
        # Each process's fastest read; see kSetupReps in src/resolve.cc.
        "setup_s": statistics.median(min(o["setup_s"]) for o in ok),
        "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in ok),
        "pair_f1": statistics.median(o["pair_f1"] for o in ok),
    }
    return len(outs), failed, metrics


def traced_run(args, corpus, ref, min_f1, deadline):
    """--trace 1: the traced run; its self-checks are the operations.

    Returns (attempted, failed, metric values, metric units).
    """
    traces = BUILD / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    spans = traces / f"{args.workload}-{args.scale}-seed{args.seed}.trace.json"
    out = call(["trace", "--workload", args.workload, "--scale", args.scale,
                "--corpus", str(corpus), "--seconds", str(args.seconds),
                "--spans-out", str(spans)], deadline)
    if out.get("status") != "OK":
        log(f"traced run failed: {out.get('status')}")
        return 1, 1, {}, {}
    attempted, failed = out["attempted"] + 1, out["failed"]
    for failure in out["failures"]:
        log(f"self-check FAILED: {failure}")
    problems = check_resolve(out, ref, out, min_f1)
    if problems:
        failed += 1
        log(f"reference run FAILED: {'; '.join(problems)}")
    log(f"spans written to {spans}")
    values = {name: m["value"] for name, m in out["metrics"].items()}
    units = {name: m["unit"] for name, m in out["metrics"].items()}
    return attempted, failed, values, units


def report(wanted, attempted, failed, values, units, env):
    """Prints the env line and the result line; returns the exit code.

    A metric that was not measured, or came with another unit than
    BENCHMARK.json names, makes the result incorrect.
    """
    metrics, correct = {}, failed == 0
    for metric in wanted:
        name = metric["name"]
        if name not in values:
            log(f"metric {name} was not measured")
            correct = False
        elif units.get(name, metric["unit"]) != metric["unit"]:
            log(f"metric {name}: unit {units[name]} != {metric['unit']}")
            correct = False
        else:
            metrics[name] = {"value": values[name], "unit": metric["unit"]}
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="corpus seed (default: references.json default_seed)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full",
                        help="small is the shrunken corpus of the smoke test")
    args = parser.parse_args()

    spec = load_spec()
    references = load_references()
    if args.seed is None:
        args.seed = references["default_seed"]
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        log(f"build failed: {err}")
        return 1
    deadline = time.monotonic() + HARD_LIMIT_S

    workload_refs = references["workloads"][args.workload]
    ref = workload_refs[args.scale].get(str(args.seed))
    min_f1 = workload_refs["min_pair_f1"]
    corpus_dir = BUILD / "corpus"
    corpus_dir.mkdir(parents=True, exist_ok=True)
    corpus = corpus_dir / f"{args.workload}-{args.scale}-{args.seed}.hera"
    corpus.unlink(missing_ok=True)
    generated = call(["generate", "--workload", args.workload, "--scale", args.scale,
                      "--seed", str(args.seed), "--out", str(corpus)], deadline)

    env = call(["env", "--workload", args.workload, "--scale", args.scale], deadline)
    env.update(workload=args.workload, scale=args.scale, seed=args.seed,
               seconds=args.seconds, trace=args.trace,
               reference_checked=ref is not None,
               git_commit=git_commit(), source_sha256=source_sha256())

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if "status" in generated:
        # No corpus, so nothing was resolved: the generation is the one
        # attempted operation, and it failed.
        log(f"generate FAILED: {generated['status']}")
        return report(wanted, 1, 1, {}, {}, env)
    if args.trace:
        attempted, failed, values, units = traced_run(args, corpus, ref, min_f1, deadline)
    else:
        attempted, failed, values = timed_runs(args, corpus, ref, min_f1, deadline)
        units = {}
    return report(wanted, attempted, failed, values, units, env)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs the shrunken ("small") version of every workload on the default
and the held-out seed, timed and traced, and checks that each run
passes its output checks against the committed references and prints
every metric BENCHMARK.json names, with its unit. It then checks that
the two seeds generated different corpora, and that resolves of a
corrupt corpus are counted as attempted and failed.

    python3 perfbench/test_run.py
"""

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "small"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def check_seeds_differ(workload, seeds):
    """The seed must reach the generator, even where the references of
    both seeds agree (ambiguous-join's structure does not depend on it)."""
    digests = {
        hashlib.sha256((bench.BUILD / "corpus" / f"{workload}-small-{seed}.hera")
                       .read_bytes()).hexdigest()
        for seed in seeds}
    assert len(digests) == len(seeds), f"seeds {seeds} generated the same corpus"


def check_failure_accounting(spec, refs):
    """Every resolve of a corrupt corpus fails, and the result says so."""
    corrupt = bench.BUILD / "corpus" / "corrupt.hera"
    corrupt.write_text('#schema\ntitle\n"unterminated\n')
    args = argparse.Namespace(workload="movies-merge", scale="small", seed=7,
                              seconds=1.0)
    ref = refs["workloads"]["movies-merge"]["small"]["7"]
    deadline = time.monotonic() + 60

    attempted, failed, values = bench.timed_runs(args, corrupt, ref, 0.0, deadline)
    assert (attempted, failed, values) == (bench.MIN_RESOLVES, bench.MIN_RESOLVES, {}), \
        (attempted, failed, values)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = bench.report(spec["end_to_end"], attempted, failed, values, {}, {})
    result = json.loads(stdout.getvalue().splitlines()[-1])
    assert code != 0
    assert result == {"correct": False, "attempted": bench.MIN_RESOLVES,
                      "failed": bench.MIN_RESOLVES, "metrics": {}}, result

    traced = bench.traced_run(args, corrupt, ref, 0.0, deadline)
    assert traced == (1, 1, {}, {}), traced
    # A subcommand that prints nothing is a failed call, not a crash of run.py.
    assert bench.call(["no-such-command", "--workload", "movies-merge"],
                    deadline)["status"] != "OK"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = json.loads((HERE / "references.json").read_text())
    seeds = (refs["default_seed"], refs["held_out_seed"])
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in seeds:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                name = f"{workload} seed {seed} trace {trace}"
                try:
                    env, result = run(workload, seed, trace)
                    assert set(result) == {"correct", "attempted", "failed", "metrics"}
                    assert result["correct"] and result["failed"] == 0, result
                    assert result["attempted"] >= 1
                    assert env["reference_checked"], "no committed reference"
                    for key in ("build_type", "kernel_dispatch", "num_threads",
                                "nproc", "git_commit", "source_sha256"):
                        assert key in env, f"environment lacks {key}"
                    for metric in spec[kind]:
                        got = result["metrics"][metric["name"]]
                        assert got["unit"] == metric["unit"], metric["name"]
                        assert isinstance(got["value"], (int, float)), metric["name"]
                    print(f"ok   {name}: {result['attempted']} operations")
                except (AssertionError, KeyError, subprocess.TimeoutExpired) as err:
                    failures += 1
                    print(f"FAIL {name}: {err}")
    checks = [(f"{w['name']} seeds differ", check_seeds_differ, (w["name"], seeds))
              for w in spec["workloads"]]
    checks.append(("failure accounting", check_failure_accounting, (spec, refs)))
    for name, check, check_args in checks:
        try:
            check(*check_args)
            print(f"ok   {name}")
        except (AssertionError, KeyError, OSError) as err:
            failures += 1
            print(f"FAIL {name}: {err}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

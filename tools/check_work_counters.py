#!/usr/bin/env python3
"""Exact work-counter gate over perfbench's shrunken workloads.

Usage:
  tools/check_work_counters.py [--baseline bench/baselines/work_counters.json]
                               [--update]

For every perfbench workload at seeds 7 and 11 it runs

  python3 perfbench/run.py --workload W --seed S --scale small --trace 1 --seconds 1

and requires `"correct": true` with 0 failed operations. It then compares
the traced run's work counters with the committed baseline, exactly. Wall
times are too noisy to gate on shared runners, but these counts repeat bit
for bit for a given seed and source tree: a change in one means the code
does different work, and the PR that causes it updates the baseline
(`--update`) and says why in CHANGES.md.

Every counter, `sim.myers_calls` included, is independent of the host
CPU: the kernels have one scalar path. `sim.myers_calls` counts the edit
distances that reach the Myers kernel; a pair that the floor-aware
Levenshtein settles by its length-gap or byte-histogram bound makes no
call, and neither does a pair with an empty side.

Exit codes: 0 every count matches, 1 a count differs or a run was not
correct, 2 operational error (a run printed no result, missing baseline).
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = ROOT / "bench" / "baselines" / "work_counters.json"
WORKLOADS = ("movies-merge", "ambiguous-join", "movies-edit")
SEEDS = (7, 11)
COUNTERS = (
    "core.iterations", "core.comparisons", "core.direct_merges",
    "core.pruned_by_bound", "core.merges",
    "simjoin.candidates", "simjoin.verified", "simjoin.emitted",
    "simjoin.pruned_prefix", "simjoin.pruned_suffix",
    "sim.pairsim_lookups", "sim.myers_calls",
    "index.pairs", "index.groups", "index.pairs_for_calls",
    "index.apply_merge_calls",
    "matching.verify_calls",
    "schema.decided_matchings",
)
RUN_TIMEOUT_S = 600


def run_traced(workload, seed):
    """Returns the result parsed from run.py's last stdout line."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--scale", "small",
           "--trace", "1", "--seconds", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no result line "
                           f"(exit {proc.returncode})")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument("--update", action="store_true",
                        help="record this tree's counts as the baseline")
    args = parser.parse_args()

    baseline = None
    if not args.update:
        try:
            baseline = json.loads(args.baseline.read_text())
        except (OSError, ValueError) as err:
            print(f"cannot read baseline {args.baseline}: {err}", file=sys.stderr)
            return 2

    recorded = {}
    failures = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            key = f"{workload}/{seed}"
            try:
                result = run_traced(workload, seed)
            except (RuntimeError, ValueError,
                    subprocess.TimeoutExpired) as err:
                print(f"error: {err}", file=sys.stderr)
                return 2
            if not result.get("correct") or result.get("failed", 1) != 0:
                failures.append(f"{key}: correct={result.get('correct')} "
                                f"failed={result.get('failed')}")
            metrics = result.get("metrics", {})
            counts = {}
            for name in COUNTERS:
                if name not in metrics:
                    failures.append(f"{key}: {name} missing from the traced run")
                    continue
                counts[name] = int(metrics[name]["value"])
            recorded[key] = counts
            if baseline is None:
                continue
            expected = baseline["runs"].get(key)
            if expected is None:
                failures.append(f"{key}: not in the baseline")
                continue
            for name in COUNTERS:
                if name in counts and counts[name] != expected.get(name):
                    failures.append(f"{key}: {name} = {counts[name]}, "
                                    f"baseline {expected.get(name)}")
            print(f"{key}: checked {len(COUNTERS)} counters")

    if args.update:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(json.dumps(
            {"runs": recorded}, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.baseline}")
    for line in failures:
        print(f"FAIL {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

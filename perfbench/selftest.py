#!/usr/bin/env python3
"""The benchmark's own tests: the correctness oracle and the sensitivity
self-check (README.md, "Self-test").

    python3 perfbench/selftest.py [--seconds S]

1. Oracle: a copy of the golden file with one feasible and one infeasible
   cold_compile entry corrupted must make cold_compile report failures
   (error_rate > 0, "correct": false); the real golden file must not.
2. Stage cache: detaching it (FlowCache::setStageCache(nullptr)) must cut
   daemon_explore points_per_s by more than its bound, while
   cold_compile, which never reuses a stage, stays within its bound.
3. dist_sweep at one worker against one worker per core must change
   points_per_s: three alternating pairs must separate completely.
4. disk_restart over an empty cache dir must lose its store hits.

Exits 0 when every check passes. Uses only switches the program already
exposes; builds through run.py first.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def bound(metric):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == metric)


def bench(workload, seconds, trace=0, *extra):
    command = [sys.executable, RUN, "--workload", workload, "--seed", "7",
               "--seconds", str(seconds), "--trace", str(trace)] + list(extra)
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit(f"selftest: {' '.join(command[2:])} exited "
                         f"{out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return result, {k: v["value"] for k, v in result["metrics"].items()}


def corrupt_golden(path):
    """Copies the golden file, flipping one feasible digest and one
    diagnostic of the cold_compile universe (its keys carry no opt=,
    unlike daemon_explore's, and no sweep prefix)."""
    lines = open(os.path.join(HERE, "golden.tsv")).read().splitlines()
    done = {"ok": False, "err": False}
    for i, line in enumerate(lines):
        key, _, outcome = line.partition("\t")
        kind = outcome.split(" ", 1)[0]
        if (not key.startswith(("sweep ", "#")) and " opt=" not in key
                and kind in done and not done[kind]):
            lines[i] = key + "\t" + outcome[:-1] + (
                "0" if outcome[-1] != "0" else "1")
            done[kind] = True
    if not all(done.values()):
        raise SystemExit("selftest: no entry to corrupt")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=5)
    seconds = parser.parse_args().seconds
    failures = []

    def check(name, ok, detail):
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)
        if not ok:
            failures.append(name)

    # 1. Oracle. Long enough to cover the 220-point universe once.
    clean, _ = bench("cold_compile", seconds)
    check("oracle accepts the recorded outcomes",
          clean["correct"] and clean["failed"] == 0,
          f"{clean['failed']} of {clean['attempted']} failed")
    os.makedirs(os.path.join(ROOT, ".bench_run"), exist_ok=True)
    corrupted_path = os.path.join(".bench_run", "selftest-golden.tsv")
    corrupt_golden(os.path.join(ROOT, corrupted_path))
    bad, _ = bench("cold_compile", seconds, 0, "--golden", corrupted_path)
    check("oracle rejects a corrupted golden entry",
          not bad["correct"] and bad["failed"] > 0,
          f"{bad['failed']} of {bad['attempted']} failed, error_rate "
          f"{bad['failed'] / bad['attempted']:.4f}")

    # 2. Stage cache detached.
    bound_pps = bound("points_per_s")
    _, daemon = bench("daemon_explore", seconds)
    _, daemon_off = bench("daemon_explore", seconds, 0, "--no-stage-cache")
    change = daemon_off["points_per_s"] / daemon["points_per_s"] - 1
    check("daemon_explore moves with the stage cache", change < -bound_pps,
          f"points_per_s {daemon['points_per_s']:.1f} -> "
          f"{daemon_off['points_per_s']:.1f} ({change:+.1%}, bound "
          f"{bound_pps:.0%})")
    # Two alternating pairs, so machine drift between two single runs
    # cannot pass for an effect.
    cold, cold_off = [], []
    for _ in range(2):
        cold.append(bench("cold_compile", seconds)[1]["points_per_s"])
        cold_off.append(bench("cold_compile", seconds, 0,
                              "--no-stage-cache")[1]["points_per_s"])
    change = sum(cold_off) / sum(cold) - 1
    check("cold_compile ignores the stage cache", abs(change) <= bound_pps,
          f"points_per_s {sum(cold) / 2:.1f} -> {sum(cold_off) / 2:.1f} "
          f"({change:+.1%}, mean of two alternating pairs)")

    # 3. Worker count. The effect is smaller than the run-to-run noise
    # allows a single pair to show, so three alternating pairs must
    # separate completely: every one-worker run on one side of every
    # one-worker-per-core run.
    wide, narrow = [], []
    for _ in range(3):
        wide.append(bench("dist_sweep", seconds)[1]["points_per_s"])
        narrow.append(bench("dist_sweep", seconds, 0, "--dist-workers",
                            "1")[1]["points_per_s"])
    separated = max(narrow) < min(wide) or min(narrow) > max(wide)
    change = sorted(narrow)[1] / sorted(wide)[1] - 1
    check("dist_sweep moves with the worker count", separated,
          f"points_per_s one worker per core {sorted(wide)}, one worker "
          f"{sorted(narrow)} (medians {change:+.1%})")

    # 4. Empty cache dir.
    _, warm = bench("disk_restart", seconds, 1)
    _, empty = bench("disk_restart", seconds, 1, "--empty-cache")
    check("disk_restart loses its store hits over an empty cache dir",
          warm["store.hits"] > 0.9 and empty["store.hits"] == 0,
          f"store.hits per request {warm['store.hits']:.3f} -> "
          f"{empty['store.hits']:.3f}")

    print(f"selftest: {len(failures)} check(s) failed" if failures
          else "selftest: all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

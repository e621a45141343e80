#!/usr/bin/env python3
"""Compare freshly generated BENCH_*.json reports against the committed
baselines at the repo root and fail on a >20% adverse change.

Only machine-independent (or machine-ratio) metrics participate in the
gate: IR op counts, op-reduction percentages, modeled kernel latencies,
cache-adoption counts, and cold/warm speedup ratios (both sides of a
ratio are measured on the same machine in the same process, so the
ratio survives slow CI runners). Raw wall-clock fields are ignored.

usage: check_bench_regression.py --baseline-dir DIR --current-dir DIR
                                 [--tolerance 0.2]
"""

import argparse
import json
import os
import sys

# metric path -> (direction, tolerance). direction "higher" = bigger is
# better; tolerance None uses the CLI default (0.2). Speedup ratios are
# built from sub-100ms wall clocks and jitter ~±25% run to run even on
# an idle machine, so they get a 0.5 band — still a hard fail when a
# cache break sends the ratio toward 1. Paths use '.' to descend.
GATES = {
    "BENCH_ir_optimizer.json": {
        "redundant_best_reduction_pct": ("higher", None),
    },
    "BENCH_incremental.json": {
        "timing.speedup": ("higher", 0.5),
        "stage_cache.stages_adopted": ("higher", None),
    },
    "BENCH_session_reuse.json": {
        "timing.speedup": ("higher", 0.5),
        "cache.flow_hits": ("higher", None),
    },
    # Deterministic BRAM36 counts from the memory planner: any drift is
    # a real behavior change, but the shared 20% band keeps one-BRAM
    # packing differences from flapping.
    "BENCH_plm_bram.json": {
        "bram36.no_sharing": ("lower", None),
        "bram36.with_sharing": ("lower", None),
        "bram36.in_hls_memory": ("lower", None),
        "bram36.in_hls_accelerator": ("lower", None),
        "bram36.in_hls_total": ("lower", None),
    },
    # 1-worker runs only: their cache accounting is deterministic
    # (async-N scheduling varies; the binary gates its correctness).
    "BENCH_async_throughput.json": {
        "runs.blocking.stage_misses": ("lower", None),
        "runs.async_1.stage_misses": ("lower", None),
        "runs.async_1.stage_hits": ("higher", None),
    },
    "BENCH_store.json": {
        "timing.speedup": ("higher", 0.5),
        "store.warm_disk_hits": ("higher", None),
        "store.cold_publishes": ("higher", None),
    },
    # Daemon flood: counts that are deterministic for the bench's fixed
    # 8x3 request matrix. The warm wave's flow hits, and the stage
    # lookups of both waves (24 compiles x 9 stages; the warm wave adds
    # none). Concurrent clients can both miss one stage prefix, so the
    # hit/miss split of those lookups (and the hit rates built from it)
    # varies run to run and is reported only, like the warm/cold ratio.
    "BENCH_serve_flood.json": {
        "cache.warm_flow_hits": ("higher", None),
        "cache.stage_lookups": ("lower", 0.01),
    },
    # Distributed sweep: the byte-identity bit and the chunk count are
    # fully deterministic (near-zero bands — any drift is a merge or
    # sharding behavior change). The 4-vs-1-worker speedup is a
    # wall-clock ratio across *processes*, so it only means anything
    # when the runner has as many cores as workers; the bench binary
    # enforces the hard >= 2x gate itself in that case, and the
    # baseline-relative gate here just catches collapse on comparable
    # runners (0.5 band like the other speedups).
    "BENCH_dist_sweep.json": {
        "identity.identical_to_local": ("higher", 0.01),
        "dist.chunks_dispatched": ("lower", 0.01),
        "timing.speedup": ("higher", 0.5),
    },
    # Model-guided search: everything here is deterministic for the
    # bench's fixed seed (analytic latency model, seeded strategies), so
    # the compile counts get a near-zero band — any drift means the
    # search behavior changed — while best_ratio keeps the 5%
    # within-best acceptance band.
    "BENCH_adaptive_search.json": {
        "model.compiles": ("lower", 0.01),
        "model.best_ratio": ("lower", 0.05),
        "model.compile_ratio": ("lower", 0.01),
        "exhaustive.compiles": ("higher", 0.01),
        "warm.compiles": ("lower", 0.01),
    },
}


def lookup(doc, path):
    node = doc
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def check_metric(name, path, baseline, current, direction, tolerance,
                 failures):
    base = lookup(baseline, path)
    cur = lookup(current, path)
    if base is None or cur is None:
        failures.append(f"{name}: metric '{path}' missing "
                        f"(baseline={base}, current={cur})")
        return
    if base == 0:
        return
    if direction == "higher":
        ratio = cur / base
        worse = ratio < 1.0 - tolerance
    else:
        ratio = cur / base
        worse = ratio > 1.0 + tolerance
    marker = "FAIL" if worse else "ok"
    print(f"  [{marker}] {name} {path}: baseline {base:.4g} "
          f"current {cur:.4g} (x{ratio:.3f})")
    if worse:
        failures.append(f"{name}: '{path}' regressed >"
                        f"{tolerance:.0%} (baseline {base:.4g}, "
                        f"current {cur:.4g})")


def optimizer_config_gates(baseline, current, tolerance, failures):
    """Every (example, config) cell's op count and modeled latency is
    deterministic — compare them all."""
    base_examples = {e["name"]: e for e in baseline.get("examples", [])}
    cur_examples = {e["name"]: e for e in current.get("examples", [])}
    for example, base_ex in base_examples.items():
        cur_ex = cur_examples.get(example)
        if cur_ex is None:
            failures.append(f"BENCH_ir_optimizer.json: example "
                            f"'{example}' disappeared")
            continue
        base_cfgs = {c["name"]: c for c in base_ex.get("configs", [])}
        cur_cfgs = {c["name"]: c for c in cur_ex.get("configs", [])}
        for cfg, base_cfg in base_cfgs.items():
            cur_cfg = cur_cfgs.get(cfg)
            if cur_cfg is None:
                failures.append(f"BENCH_ir_optimizer.json: config "
                                f"'{example}/{cfg}' disappeared")
                continue
            for key in ("ops_after", "kernel_us"):
                check_metric(f"BENCH_ir_optimizer.json [{example}/{cfg}]",
                             key, base_cfg, cur_cfg, "lower", tolerance,
                             failures)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", required=True)
    parser.add_argument("--current-dir", required=True)
    parser.add_argument("--tolerance", type=float, default=0.2)
    args = parser.parse_args()

    failures = []
    for name, gates in GATES.items():
        baseline_path = os.path.join(args.baseline_dir, name)
        current_path = os.path.join(args.current_dir, name)
        if not os.path.exists(baseline_path):
            failures.append(f"{name}: committed baseline missing at "
                            f"{baseline_path}")
            continue
        if not os.path.exists(current_path):
            failures.append(f"{name}: bench did not produce "
                            f"{current_path}")
            continue
        with open(baseline_path) as f:
            baseline = json.load(f)
        with open(current_path) as f:
            current = json.load(f)
        if baseline.get("schema") != current.get("schema"):
            failures.append(f"{name}: schema changed "
                            f"({baseline.get('schema')} -> "
                            f"{current.get('schema')})")
            continue
        for path, (direction, tolerance) in gates.items():
            check_metric(name, path, baseline, current, direction,
                         tolerance if tolerance is not None
                         else args.tolerance, failures)
        if name == "BENCH_ir_optimizer.json":
            optimizer_config_gates(baseline, current, args.tolerance,
                                   failures)

    if failures:
        print("\nbench regression check FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nbench regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

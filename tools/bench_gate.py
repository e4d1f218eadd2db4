#!/usr/bin/env python3
"""Bench regression gate: diff BENCH_*.json artifacts against committed baselines.

Benches emit machine-readable row arrays (bench_util.h JsonBenchReport). This gate matches
rows by their key columns and compares metrics against bench/baselines/*.json:

  - *portable* metrics (scaling speedups, ops amortized per world switch, switch counts)
    characterize shape, not host speed — they gate unconditionally;
  - *absolute* metrics (events/sec) depend on the runner hardware — they gate only with
    --absolute (or SBT_BENCH_GATE_ABSOLUTE=1), which CI enables once the baselines were
    refreshed on the same runner class (the manual-dispatch refresh-baselines workflow);
    otherwise they only warn. A bench schema can also ARM its absolute metrics itself
    ("absolute_armed") once its baselines carry a runner-class column ("runner_class_key",
    e.g. host_cores): rows gate absolutely when the baseline row and the current row report
    the same runner class, and keep warning when the classes differ — so a baseline refreshed
    on a 4-core runner never hard-fails a 1-core container, and vice versa.

A metric regresses when it moves past the tolerance (default 15%, SBT_BENCH_GATE_TOLERANCE)
in its bad direction. Boolean requirements (ok / verified / errors == 0) always gate.

A bench can additionally declare a "scaling" clause — a floor on the geometric mean of a
portable metric over selected rows (fig7: speedup_vs_1_worker > 1.5 across the workers=4
rows). It arms only when the current host reports at least min_host_cores, because a
single-core runner cannot demonstrate parallel speedup no matter how healthy the code is.

Exit codes: 0 pass, 1 regression or requirement failure, 2 usage error.
"""

import argparse
import json
import math
import os
import sys

TOLERANCE = float(os.environ.get("SBT_BENCH_GATE_TOLERANCE", "0.15"))


class Metric:
    def __init__(self, name, lower_is_worse=True, portable=False, tolerance=None,
                 min_baseline=None):
        self.name = name
        self.lower_is_worse = lower_is_worse
        self.portable = portable
        # Per-metric tolerance override (fraction); None -> the global threshold.
        self.tolerance = tolerance
        # Only gate when the BASELINE exceeds this value: a scaling ratio measured on a
        # saturated or single-core host is noise, not a baseline — the check arms itself once
        # refreshed baselines actually demonstrate scaling.
        self.min_baseline = min_baseline


# Per-bench schema: key columns identify a row across runs; metrics are compared; require
# entries are exact-match invariants on every current row.
BENCHES = {
    "fig7": {
        "keys": ["bench", "version", "workers"],
        "metrics": [
            Metric("speedup_vs_1_worker", portable=True, tolerance=0.25, min_baseline=1.2),
            Metric("events_per_sec"),
        ],
        "require": {"ok": True},
        # The absolute-throughput arm (lock-free retire PR): events_per_sec gates without
        # --absolute, but only row-by-row where baseline and run agree on host_cores — the
        # runner-class proxy the rows carry. Mismatched classes degrade to the warn path.
        "absolute_armed": True,
        "runner_class_key": "host_cores",
        # The paper's scaling claim, as a gate: on a >=4-core host the geometric mean of
        # speedup_vs_1_worker across all workers=4 rows must clear 1.5x.
        "scaling": {"metric": "speedup_vs_1_worker", "where": {"workers": "4"},
                    "min_geomean": 1.5, "min_host_cores": 4},
    },
    "fig9": {
        "keys": ["series", "batch_events"],
        "metrics": [
            # Batch-size sweeps land on discrete chain/window-count steps, so the boundary
            # metrics move in quanta; a 35% band gates the order-of-magnitude claim (fusing
            # amortizes the boundary) without tripping on a one-step shift.
            Metric("ops_per_entry", portable=True, tolerance=0.35),
            Metric("switch_entries", lower_is_worse=False, portable=True, tolerance=0.35),
            Metric("events_per_sec"),
        ],
        "require": {},
    },
    "vectorize_sort": {
        "keys": ["op", "impl"],
        "metrics": [
            # SortI64/MergeI64 against std::sort/std::merge timed in the same process: the ratio
            # is portable across hosts of the same ISA. min_baseline keeps the reference rows
            # (std_sort and std_merge at 1.0, qsort below it) out of the gate.
            Metric("speedup_vs_std", portable=True, tolerance=0.35, min_baseline=1.2),
            Metric("mkeys_per_sec"),
        ],
        "require": {},
    },
    "server_scaling": {
        "keys": ["shards", "workers"],
        "metrics": [
            Metric("events_per_sec"),
        ],
        "require": {"verified": True, "errors": 0},
    },
    "failover": {
        "keys": ["checkpoint_interval_ms"],
        "metrics": [
            # Ingest throughput under continuous sealing and the promotion RTO are both
            # runner-class-absolute; they warn until baselines are refreshed on this runner.
            # Zero loss + chain verification across the kill gate unconditionally through the
            # require clause — that is the availability claim, and it must never be host-relative.
            Metric("events_per_sec"),
            Metric("rto_ms", lower_is_worse=False),
        ],
        "require": {"verified": True, "errors": 0},
    },
    "ingress": {
        "keys": ["sources"],
        "metrics": [
            # Loopback throughput and watermark delay are runner-class-absolute; they warn
            # until baselines are refreshed. Exact delivery + verification gate unconditionally
            # through the require clause.
            Metric("events_per_sec"),
            Metric("p99_watermark_delay_ms", lower_is_worse=False),
        ],
        "require": {"verified": True, "errors": 0},
    },
}


def load_rows(path):
    with open(path) as f:
        return json.load(f)


def row_key(row, keys):
    return tuple(str(row.get(k)) for k in keys)


def same_runner_class(schema, base_row, cur_row):
    """True when both rows carry the schema's runner-class column with equal values.

    A row missing the column (baselines predating it, or a bench that never emits it) is an
    unknown runner class: never a match, so self-armed absolute gating stays off until the
    refresh-baselines workflow re-emits baselines with the column.
    """
    key = schema.get("runner_class_key")
    if key is None or key not in base_row or key not in cur_row:
        return False
    return str(base_row[key]) == str(cur_row[key])


def check_scaling(name, schema, current, failures, warnings):
    clause = schema.get("scaling")
    if clause is None:
        return
    rows = list(current.values())
    cores_key = schema.get("runner_class_key", "host_cores")
    cores = max((int(r[cores_key]) for r in rows if r.get(cores_key) is not None), default=0)
    if cores < clause["min_host_cores"]:
        warnings.append(f"{name}: scaling check disarmed (host reports {cores} cores, "
                        f"needs >= {clause['min_host_cores']} to demonstrate speedup)")
        return
    selected = [r for r in rows
                if all(str(r.get(k)) == v for k, v in clause["where"].items())]
    values = [float(r[clause["metric"]]) for r in selected
              if r.get(clause["metric"]) is not None and float(r[clause["metric"]]) > 0]
    if not values:
        # The bench ran on a capable host but produced no usable rows: that is the check
        # being silently defeated, not a benign skip.
        failures.append(f"{name}: scaling check found no rows matching {clause['where']} "
                        f"with positive {clause['metric']}")
        return
    geomean = math.exp(sum(math.log(v) for v in values) / len(values))
    if geomean < clause["min_geomean"]:
        failures.append(f"{name}: geomean {clause['metric']} at {clause['where']} is "
                        f"{geomean:.3f}, required >= {clause['min_geomean']} "
                        f"({len(values)} row(s), host_cores={cores})")


def compare_bench(name, schema, baseline_rows, current_rows, absolute, failures, warnings):
    baseline = {row_key(r, schema["keys"]): r for r in baseline_rows}
    current = {row_key(r, schema["keys"]): r for r in current_rows}

    for key, row in current.items():
        for req, want in schema["require"].items():
            # A missing required field is a failure, not a pass: these invariants must not be
            # silently disabled by a bench dropping or renaming the column.
            if req not in row:
                failures.append(f"{name} {key}: required field {req!r} missing from bench JSON")
            elif row[req] != want:
                failures.append(f"{name} {key}: {req}={row[req]!r}, required {want!r}")

    for key, base in baseline.items():
        cur = current.get(key)
        if cur is None:
            failures.append(f"{name} {key}: row present in baseline but missing from run")
            continue
        for metric in schema["metrics"]:
            # A metric the baseline (or the run) never recorded is "no gate", said out loud —
            # never a silent skip and never a false failure. Baselines predating a new metric
            # stay green until the refresh-baselines workflow re-emits them with the column.
            if base.get(metric.name) is None or cur.get(metric.name) is None:
                side = "baseline" if base.get(metric.name) is None else "run"
                warnings.append(f"{name} {key}: {metric.name} missing from {side} JSON; "
                                "not gated (refresh baselines to arm)")
                continue
            b, c = float(base[metric.name]), float(cur[metric.name])
            if b == 0:
                # Relative change against a zero baseline is undefined; a zero measurement is
                # a degenerate run (or a placeholder row), not a reference point.
                warnings.append(f"{name} {key}: baseline {metric.name} is 0; "
                                "not gated (refresh baselines to arm)")
                continue
            if metric.min_baseline is not None and b < metric.min_baseline:
                continue  # baseline below the metric's meaningful range; nothing to protect
            tol = TOLERANCE if metric.tolerance is None else metric.tolerance
            change = (c - b) / abs(b)
            regressed = (change < -tol) if metric.lower_is_worse else (change > tol)
            if not regressed:
                continue
            msg = (f"{name} {key}: {metric.name} {b:.4g} -> {c:.4g} "
                   f"({change * 100:+.1f}%, tolerance {tol * 100:.0f}%)")
            armed = absolute or (schema.get("absolute_armed", False) and
                                 same_runner_class(schema, base, cur))
            if metric.portable or armed:
                failures.append(msg)
            else:
                warnings.append(msg + " [absolute metric; warning only until baselines "
                                      "are refreshed on this runner class]")

    check_scaling(name, schema, current, failures, warnings)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", default="bench/baselines")
    parser.add_argument("--current-dir", required=True,
                        help="directory holding the run's BENCH_*.json files")
    parser.add_argument("--absolute", action="store_true",
                        default=os.environ.get("SBT_BENCH_GATE_ABSOLUTE") == "1",
                        help="gate absolute throughput metrics too")
    args = parser.parse_args()

    failures, warnings, checked = [], [], 0
    for name, schema in BENCHES.items():
        baseline_path = os.path.join(args.baseline_dir, f"BENCH_{name}.json")
        current_path = os.path.join(args.current_dir, f"BENCH_{name}.json")
        if not os.path.exists(baseline_path):
            warnings.append(f"{name}: no committed baseline at {baseline_path}; skipped")
            continue
        if not os.path.exists(current_path):
            failures.append(f"{name}: baseline exists but the run produced no {current_path}")
            continue
        try:
            compare_bench(name, schema, load_rows(baseline_path), load_rows(current_path),
                          args.absolute, failures, warnings)
            checked += 1
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
            failures.append(f"{name}: malformed bench JSON ({e})")

    for w in warnings:
        print(f"WARN  {w}")
    for f in failures:
        print(f"FAIL  {f}")
    if checked == 0:
        print("FAIL  no benches compared (missing baselines?)")
        return 1
    if failures:
        print(f"bench gate: {len(failures)} regression(s) across {checked} bench(es)")
        return 1
    print(f"bench gate: OK ({checked} bench(es), {len(warnings)} warning(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())

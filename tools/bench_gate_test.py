#!/usr/bin/env python3
"""Tests for the bench regression gate's edge semantics.

pytest-style (each test_* function is a case, bare asserts) but dependency-free: running this
file directly executes every test_* function and reports, so CI needs only python3. Under
pytest the same functions collect and run unchanged.

The cases pin the contract bench_gate grew in the flat-combining PR: a zero or missing
baseline metric is "no gate, with a warning" — never a crash, never a false failure — while
real regressions, missing rows, and violated requirements still fail.
"""

import importlib.util
import os
import sys

_SPEC = importlib.util.spec_from_file_location(
    "bench_gate", os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_gate.py"))
bench_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_gate)


def run_compare(baseline_rows, current_rows, bench="fig9", absolute=False):
    failures, warnings = [], []
    bench_gate.compare_bench(bench, bench_gate.BENCHES[bench], baseline_rows, current_rows,
                             absolute, failures, warnings)
    return failures, warnings


def fig9_row(series="fused", batch=8000, ops=40.0, entries=6, eps=1e6):
    return {"series": series, "batch_events": batch, "ops_per_entry": ops,
            "switch_entries": entries, "events_per_sec": eps}


def test_zero_baseline_metric_warns_and_does_not_gate():
    base = [fig9_row(ops=0.0)]
    cur = [fig9_row(ops=40.0)]
    failures, warnings = run_compare(base, cur)
    assert failures == [], failures
    assert any("ops_per_entry is 0" in w and "not gated" in w for w in warnings), warnings


def test_metric_missing_from_baseline_warns_and_does_not_gate():
    base = [{k: v for k, v in fig9_row().items() if k != "switch_entries"}]
    cur = [fig9_row()]
    failures, warnings = run_compare(base, cur)
    assert failures == [], failures
    assert any("switch_entries missing from baseline" in w for w in warnings), warnings


def test_metric_missing_from_run_warns_and_does_not_gate():
    base = [fig9_row()]
    cur = [{k: v for k, v in fig9_row().items() if k != "ops_per_entry"}]
    failures, warnings = run_compare(base, cur)
    assert failures == [], failures
    assert any("ops_per_entry missing from run" in w for w in warnings), warnings


def test_null_metric_is_missing_not_a_crash():
    base = [dict(fig9_row(), ops_per_entry=None)]
    cur = [fig9_row()]
    failures, warnings = run_compare(base, cur)
    assert failures == [], failures
    assert any("ops_per_entry missing from baseline" in w for w in warnings), warnings


def test_portable_regression_still_fails():
    base = [fig9_row(ops=40.0)]
    cur = [fig9_row(ops=10.0)]  # -75%, far past the 35% band
    failures, _ = run_compare(base, cur)
    assert any("ops_per_entry" in f for f in failures), failures


def test_within_tolerance_change_passes():
    base = [fig9_row(ops=40.0, entries=6)]
    cur = [fig9_row(ops=32.0, entries=7)]  # -20% / +17%, inside the 35% band
    failures, warnings = run_compare(base, cur)
    assert failures == [], failures
    assert warnings == [], warnings


def test_absolute_metric_only_warns_by_default():
    base = [fig9_row(eps=1e6)]
    cur = [fig9_row(eps=1e5)]
    failures, warnings = run_compare(base, cur, absolute=False)
    assert failures == [], failures
    assert any("events_per_sec" in w for w in warnings), warnings
    failures, _ = run_compare(base, cur, absolute=True)
    assert any("events_per_sec" in f for f in failures), failures


def test_baseline_row_missing_from_run_fails():
    base = [fig9_row(), fig9_row(series="combined")]
    cur = [fig9_row()]
    failures, _ = run_compare(base, cur)
    assert any("missing from run" in f for f in failures), failures


def test_requirement_violation_fails():
    base = [{"bench": "fig7", "version": "sbt", "workers": 4,
             "speedup_vs_1_worker": 2.0, "events_per_sec": 1e6, "ok": True}]
    cur = [dict(base[0], ok=False)]
    failures, _ = run_compare(base, cur, bench="fig7")
    assert any("ok=False" in f for f in failures), failures


def fig7_row(workers=1, speedup=1.0, eps=1e6, cores=4):
    return {"bench": "TopK", "version": "StreamBox-TZ", "workers": workers,
            "speedup_vs_1_worker": speedup, "events_per_sec": eps, "max_delay_ms": 10,
            "ok": True, "host_cores": cores}


def test_fig7_absolute_armed_when_runner_class_matches():
    # Same host_cores on both sides: the self-armed bench hard-fails the absolute
    # regression even without --absolute.
    base = [fig7_row(eps=1e6, cores=4)]
    cur = [fig7_row(eps=1e5, cores=4, speedup=1.6)]
    failures, _ = run_compare(base, cur, bench="fig7", absolute=False)
    assert any("events_per_sec" in f for f in failures), failures


def test_fig7_absolute_warns_when_runner_class_differs():
    base = [fig7_row(eps=1e6, cores=1)]
    cur = [fig7_row(eps=1e5, cores=4, speedup=1.6)]
    failures, warnings = run_compare(base, cur, bench="fig7", absolute=False)
    assert not any("events_per_sec" in f for f in failures), failures
    assert any("events_per_sec" in w for w in warnings), warnings


def test_fig7_absolute_warns_when_runner_class_missing():
    # Baselines predating the host_cores column must not arm absolute gating.
    base = [{k: v for k, v in fig7_row(eps=1e6).items() if k != "host_cores"}]
    cur = [fig7_row(eps=1e5, speedup=1.6)]
    failures, warnings = run_compare(base, cur, bench="fig7", absolute=False)
    assert not any("events_per_sec" in f for f in failures), failures
    assert any("events_per_sec" in w for w in warnings), warnings


def test_fig7_scaling_floor_fails_on_capable_host():
    rows = [fig7_row(workers=4, speedup=1.1, cores=4)]
    failures, _ = run_compare(rows, rows, bench="fig7")
    assert any("geomean" in f for f in failures), failures


def test_fig7_scaling_floor_passes_above_threshold():
    rows = [fig7_row(workers=4, speedup=1.8, cores=4),
            fig7_row(workers=4, speedup=1.6, cores=4) | {"version": "Insecure"}]
    failures, _ = run_compare(rows, rows, bench="fig7")
    assert not any("geomean" in f for f in failures), failures


def test_fig7_scaling_disarmed_on_small_host():
    # A 1-core container cannot demonstrate parallel speedup: disarm loudly, don't fail.
    rows = [fig7_row(workers=4, speedup=0.9, cores=1)]
    failures, warnings = run_compare(rows, rows, bench="fig7")
    assert failures == [], failures
    assert any("scaling check disarmed" in w for w in warnings), warnings


def test_fig7_scaling_with_no_usable_rows_fails():
    # Capable host but every workers=4 row unusable: the check is being defeated, not skipped.
    rows = [fig7_row(workers=2, speedup=1.4, cores=8)]
    failures, _ = run_compare(rows, rows, bench="fig7")
    assert any("scaling check found no rows" in f for f in failures), failures


def vs_row(op="sort", impl="sbt", speedup=2.9, mkeys=90.0):
    return {"op": op, "impl": impl, "seconds": 0.01, "mkeys_per_sec": mkeys,
            "speedup_vs_std": speedup}


def test_vectorize_sort_speedup_regression_fails():
    base = [vs_row(speedup=2.9)]
    cur = [vs_row(speedup=1.0)]  # SortI64 collapsed to std::sort speed
    failures, _ = run_compare(base, cur, bench="vectorize_sort")
    assert any("speedup_vs_std" in f for f in failures), failures


def test_vectorize_sort_reference_rows_not_gated():
    # std::sort is its own reference (1.0) and qsort sits below it; min_baseline keeps both
    # ratios out of the gate even when they drift.
    base = [vs_row(impl="std_sort", speedup=1.0), vs_row(impl="qsort", speedup=0.45)]
    cur = [vs_row(impl="std_sort", speedup=1.0), vs_row(impl="qsort", speedup=0.2)]
    failures, _ = run_compare(base, cur, bench="vectorize_sort")
    assert failures == [], failures


def main():
    tests = [(n, f) for n, f in sorted(globals().items())
             if n.startswith("test_") and callable(f)]
    failed = []
    for name, fn in tests:
        try:
            fn()
            print(f"PASS  {name}")
        except AssertionError as e:
            failed.append(name)
            print(f"FAIL  {name}: {e}")
    print(f"bench_gate_test: {len(tests) - len(failed)}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

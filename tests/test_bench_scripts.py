"""Import checks + smoke runs for the benchmark harness.

Every ``benchmarks/*.py`` file must at least import cleanly on every
test run, so a refactor that breaks a bench surfaces immediately
instead of at paper-reproduction time.  The perf-regression script
additionally gets a real ``--quick`` execution, marked ``slow``
(deselected by default; run with ``pytest -m slow``).
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"
BENCH_SCRIPTS = sorted(p for p in BENCH_DIR.glob("*.py") if p.name != "conftest.py")


@pytest.mark.parametrize("script", BENCH_SCRIPTS, ids=lambda p: p.stem)
def test_bench_script_imports(script):
    """Each bench module must import without executing its workload."""
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))  # mirrors benchmarks/conftest.py
    spec = importlib.util.spec_from_file_location(f"bench_import_{script.stem}", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)


def test_perf_regression_has_cli():
    spec = importlib.util.spec_from_file_location(
        "bench_perf_regression_cli", BENCH_DIR / "bench_perf_regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
    assert callable(module.run)


@pytest.mark.slow
def test_perf_regression_quick_smoke(tmp_path):
    """End-to-end --quick run: parity asserts inside the script must
    hold and the JSON trajectory file must be complete."""
    out = tmp_path / "BENCH_perf.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "bench_perf_regression.py"), "--quick", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["config"]["quick"] is True
    assert report["smoothing"]["speedup"] > 1.0
    assert set(report["lookups"]) == {
        "alex", "lipp", "sali", "btree", "pgm", "rmi", "sorted_array",
    }
    for row in report["lookups"].values():
        assert row["batch_lookups_per_s"] > 0
    assert set(report["inserts"]) == {"sorted_array", "btree", "alex", "lipp", "sali"}
    assert set(report["bulk_inserts"]) == {"btree", "alex", "lipp", "sali"}
    for row in report["bulk_inserts"].values():
        assert row["bulk_inserts_per_s"] > 0
        assert row["speedup"] > 1.0


def _run_check_regression(tmp_path, baseline: dict, fresh: dict, *extra):
    base_path = tmp_path / "baseline.json"
    fresh_path = tmp_path / "fresh.json"
    base_path.write_text(json.dumps(baseline))
    fresh_path.write_text(json.dumps(fresh))
    return subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "check_regression.py"),
            "--baseline", str(base_path), "--fresh", str(fresh_path), *extra,
        ],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=REPO_ROOT,
    )


_GATE_BASELINE = {
    "config": {"quick": False, "n": 10},
    "lookups": {"lipp": {"loop_lookups_per_s": 1000.0, "speedup": 2.0}},
    "bulk_inserts": {"lipp": {"bulk_inserts_per_s": 50_000.0, "speedup": 10.0}},
    "quick_baseline": {
        "config": {"quick": True, "n": 2},
        "lookups": {"lipp": {"loop_lookups_per_s": 400.0, "speedup": 1.8}},
        "inserts": {"lipp": {"loop_inserts_per_s": 50.0, "speedup": 0.95}},
        "bulk_inserts": {"lipp": {"bulk_inserts_per_s": 9_000.0, "speedup": 8.0}},
    },
}


def test_check_regression_passes_on_identical_report(tmp_path):
    proc = _run_check_regression(tmp_path, _GATE_BASELINE, _GATE_BASELINE)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "[strict]" in proc.stdout
    assert "perf gate passed" in proc.stdout


def test_check_regression_fails_on_throughput_drop(tmp_path):
    fresh = json.loads(json.dumps(_GATE_BASELINE))
    fresh["bulk_inserts"]["lipp"]["bulk_inserts_per_s"] = 20_000.0  # -60%
    proc = _run_check_regression(tmp_path, _GATE_BASELINE, fresh)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAIL" in proc.stdout


def test_check_regression_ci_mode_gates_speedups(tmp_path):
    """Quick fresh vs full baseline with an embedded quick_baseline:
    speedup ratios are gated, absolute throughput is informational
    (a slower CI runner shifts it uniformly)."""
    fresh = {
        "config": {"quick": True, "n": 2},
        "lookups": {"lipp": {"loop_lookups_per_s": 100.0, "speedup": 1.7}},
        # Near-unity baseline speedup (0.95) halving is measurement
        # noise, not a regression: demoted to info, never gated.
        "inserts": {"lipp": {"loop_inserts_per_s": 12.0, "speedup": 0.5}},
        "bulk_inserts": {"lipp": {"bulk_inserts_per_s": 2_000.0, "speedup": 7.5}},
    }
    # Throughput is 4x below the quick baseline (slow runner) but the
    # meaningful speedups held up: the gate passes.
    proc = _run_check_regression(tmp_path, _GATE_BASELINE, fresh)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "[ratio]" in proc.stdout
    assert "[info]" in proc.stdout
    # A collapsed speedup is a real regression and fails.
    fresh["bulk_inserts"]["lipp"]["speedup"] = 2.0  # -75% vs 8.0
    proc = _run_check_regression(tmp_path, _GATE_BASELINE, fresh)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAIL" in proc.stdout


def test_check_regression_grace_fallback_without_quick_baseline(tmp_path):
    baseline = json.loads(json.dumps(_GATE_BASELINE))
    del baseline["quick_baseline"]
    fresh = {
        "config": {"quick": True, "n": 2},  # different config: grace applies
        "lookups": {"lipp": {"loop_lookups_per_s": 700.0}},  # -30% < 50% grace
    }
    proc = _run_check_regression(tmp_path, baseline, fresh)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "[grace" in proc.stdout
    assert "[skip]" in proc.stdout  # bulk_inserts only in the baseline


def test_quick_run_refuses_to_overwrite_committed_baseline():
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "bench_perf_regression.py"), "--quick"],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "must not overwrite" in proc.stderr


def test_check_regression_same_config_uses_strict_gate(tmp_path):
    fresh = json.loads(json.dumps(_GATE_BASELINE))
    fresh["lookups"]["lipp"]["loop_lookups_per_s"] = 650.0  # -35% > 30%
    proc = _run_check_regression(tmp_path, _GATE_BASELINE, fresh)
    assert proc.returncode == 1, proc.stdout + proc.stderr


@pytest.mark.slow
def test_bench_serving_quick_smoke(tmp_path):
    """End-to-end --quick serving bench: shard-scaling rows recorded,
    merged into (not clobbering) an existing BENCH_perf.json."""
    out = tmp_path / "BENCH_perf.json"
    out.write_text(json.dumps({"smoothing": {"sentinel": True}}))
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "bench_serving.py"), "--quick", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["smoothing"] == {"sentinel": True}  # merge, not overwrite
    serving = report["serving"]
    assert serving["config"]["quick"] is True
    for family in ("lipp", "btree", "pgm"):
        sweep = serving["scaling"][family]
        assert set(sweep) == {"K1", "K2", "K4", "K8"}
        for row in sweep.values():
            assert row["lookups_per_s"] > 0
            assert row["threaded_lookups_per_s"] > 0
            assert row["mixed_ops_per_s"] > 0
    assert serving["config"]["cpu_count"] >= 1
    for family in ("lipp", "btree"):
        sweep = serving["process_scaling"][family]
        assert {"K1", "K2", "K4"} <= set(sweep)
        for label in ("K1", "K2", "K4"):
            assert sweep[label]["process_lookups_per_s"] > 0
        assert sweep["k4_over_k1_ratio"] > 0


def test_perfbench_tracing_hooks_resolve():
    """``perfbench/tracing.py`` wraps router, service and index methods
    by name; a rename must fail here, not in a traced benchmark run.
    Installed in a subprocess: the wrappers patch classes for good."""
    code = "from perfbench.tracing import Tracer, install; install(Tracer())"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)])},
    )
    assert proc.returncode == 0, proc.stderr

"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload http-lookup-small --seed 1 --seconds 20 --trace 0

Prints a table of every metric with its unit, a run record, and, as
the last line, one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` they are its
per-layer metrics, from a separate traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics printed in the table and the run record but not
#: gated by BENCHMARK.json: tails, which on http-mixed-durable swing
#: with a few merge stalls per run, and the metrics of one workload only.
EXTRA_UNITS = {
    "lookup_p99_ms": "ms",
    "insert_p50_ms": "ms", "insert_p90_ms": "ms", "insert_p99_ms": "ms",
    "range_p50_ms": "ms", "range_p90_ms": "ms",
    "disk_bytes_per_key": "B/key", "index_bytes_per_key": "B/key",
    "failed_frac": "ratio",
}

#: A run whose generator ran later than this (p99) is flagged.
GENERATOR_BEHIND_MS = 5.0


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import numpy as np

    from perfbench.layers import CATALOG
    from perfbench.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    work_root = ROOT / "perfbench" / ".work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        out = WORKLOADS[args.workload].run(ROOT, work, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out.extra["failed_frac"] = out.failed / max(out.attempted, 1)
    late = out.record.get("client_late_p99_ms", 0.0)
    if late > GENERATOR_BEHIND_MS:
        out.flags.append(f"generator fell behind: late p99 {late:.2f} ms")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "git_commit": _git_commit(), "src_sha256": _src_digest(),
        **out.record, "flags": out.flags, "problems": out.problems,
    }

    if args.trace:
        units = {layer.name: layer.unit for layer in CATALOG}
        values = out.layers
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = out.metrics
        wanted = list(units)
    print(f"{args.workload} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
    for name in wanted:
        print(f"  {name:44s} {values[name]:14.4f} {units[name]}")
    if not args.trace:
        for name, value in out.extra.items():
            print(f"  {name:44s} {value:14.4f} {EXTRA_UNITS.get(name, '')}  (not gated)")
    record["not_gated"] = out.extra
    print("run record: " + json.dumps(record, default=str))
    result = {
        "correct": out.failed == 0 and not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

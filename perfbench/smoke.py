#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on a tiny configuration.

    python3 perfbench/smoke.py

Runs each workload run.py offers (BENCHMARK.json lists those the timed
runs use) with orders <= 2 and a few dozen requests, and checks that
every run prints each metric BENCHMARK.json names with its unit,
untraced and traced; that one seed always gives the same requests; and
that a deliberately corrupted answer is counted as a failed operation.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run


def expect(ok: bool, what: str):
    if not ok:
        raise SystemExit(f"smoke: FAILED: {what}")
    print(f"smoke: ok: {what}")


def check_metrics(spec):
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "3",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=run.ROOT)
            expect(proc.returncode == 0, f"{workload} trace={trace} exits 0 {proc.stderr.strip()}")
            result = json.loads(proc.stdout.splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{workload} trace={trace} prints every {key} metric with its unit")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace={trace} is correct on the current code")


def check_determinism(queries, pools):
    def first(seed, k=50):
        gen = queries.stream(seed, pools)
        return [next(gen) for _ in range(k)]

    expect(first(7) == first(7), "the same seed gives identical requests")
    expect(first(7) != first(8), "another seed gives other requests")


def check_corruption(sglab, queries, pools):
    canonical_form = queries.catalog.canonical_form
    corrupted = []

    def wrong_once(S):
        table = canonical_form(S)
        if corrupted:
            return table
        corrupted.append(S)
        return ()

    queries.catalog.canonical_form = wrong_once
    try:
        out, _ = run.run_queries(queries, queries.stream(3, pools), 1, run.TINY_REQUESTS)
    finally:
        queries.catalog.canonical_form = canonical_form
    expect(len(corrupted) == 1 and out.failed == 1,
           f"one corrupted canon answer gives error_rate {out.failed}/{out.attempted}")

    record = sglab.reports.CheckReport.record

    def failing_once(self):
        line = record(self)
        if not corrupted[1:]:
            corrupted.append(line)
            line = line.replace("status=pass", "status=fail")
        return line

    sglab.reports.CheckReport.record = failing_once
    try:
        out = run.run_verify(sglab.cli, run.verify_argv("verify-o4", 3, tiny=True), 0)
    finally:
        sglab.reports.CheckReport.record = record
    expect(out.failed == 1, f"one corrupted verify record gives error_rate {out.failed}/{out.attempted}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_metrics(spec)
    sglab = run.import_sglab()
    import queries

    pools = queries.build_pools(tiny=True)
    check_determinism(queries, pools)
    check_corruption(sglab, queries, pools)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test of the benchmark on tiny inputs; takes well under a minute.

    python3 perfbench/selftest.py

For every workload, untraced and traced, it runs ``run.py --tiny`` and
checks that the result line names exactly the metrics of BENCHMARK.json,
with their units, as finite numbers, and that the run is correct.  It then
checks in process that every mutant kind is built and that every mutant the
verifiers reject today is rejected; the mutants listed in
``harness.KNOWN_UNSOUND`` are reported, not asserted.  Last, it checks that
the benchmark exits non-zero without printing a result when the checkout
holds nothing but BENCHMARK.json and this directory.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out" / "selftest"

ALL_MUTANTS = {
    "decomposition.vertex_outside", "decomposition.uncovered",
    "tracks.intra_track_edge", "tracks.vertex_outside", "tracks.uncovered",
    "queues.vertex_outside", "queues.uncovered",
    "nonrep.monochromatic_edge", "nonrep.planted_square", "nonrep.vertex_outside",
    "nonrep.uncovered",
    "drawing.shared_point", "drawing.vertex_outside", "drawing.uncovered",
    "shadow.uncovered", "shadow.vertex_outside",
}


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_results(spec: dict) -> None:
    for w in (x["name"] for x in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            proc = run_bench(ROOT, w, trace)
            check(proc.returncode == 0, f"{w} trace {trace} exit {proc.returncode}: {proc.stderr}")
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(out) == {"correct", "attempted", "failed", "metrics"}, f"{w}: result keys")
            check(out["correct"] is True, f"{w} trace {trace}: incorrect: {proc.stderr}")
            check(0 <= out["failed"] <= out["attempted"] and out["attempted"] >= 1,
                  f"{w}: attempted/failed")
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            check(got == want, f"{w} trace {trace}: metrics {sorted(set(got) ^ set(want))} "
                               "differ from BENCHMARK.json")
            for k, v in out["metrics"].items():
                check(isinstance(v["value"], (int, float)) and math.isfinite(v["value"]),
                      f"{w}: {k} = {v['value']!r}")
            print(f"ok  {w:13s} trace {trace}: {len(got)} metrics, "
                  f"{out['failed']}/{out['attempted']} failed (known defects)")


def check_mutants(spec: dict) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import harness

    seen: set[str] = set()
    accepted: set[str] = set()
    for w in (x["name"] for x in spec["workloads"]):
        for inp in harness.make_inputs(w, 1, tiny=True):
            res = harness.certify(inp, harness.NoTracer())
            seen.update(res.mutants)
            new = [f for f in res.failures if not f[2]]
            check(not new, f"{w}/{inp.gid}: {new}")
            accepted.update(name for name, _, _ in res.failures)
    check(seen == ALL_MUTANTS, f"mutant kinds built: missing {sorted(ALL_MUTANTS - seen)}")
    print(f"ok  {len(seen) - len(accepted)} mutant kinds rejected; accepted as known defects: "
          f"{', '.join(sorted(accepted))}")
    fixed = harness.KNOWN_UNSOUND - accepted
    if fixed:
        print(f"note: now rejected, drop from KNOWN_UNSOUND: {', '.join(sorted(fixed))}")


def check_bare_checkout() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_bench(bare, "certify", 0)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"bare checkout: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok  bare checkout exits {proc.returncode}: {proc.stderr.strip().splitlines()[-1]}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_results(spec)
    check_mutants(spec)
    check_bare_checkout()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

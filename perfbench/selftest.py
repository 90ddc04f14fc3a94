"""Self-test of the benchmark on a tiny request subset of every workload.

    python3 perfbench/selftest.py

Run from the root of a blocksieve checkout.  Checks that both modes print
exactly the metrics BENCHMARK.json names, with their units; that a
deliberately corrupted output of each workload is counted as failed; and
that altered inputs fail the fingerprint check.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import run
import workloads

SUBSET = 3


def corrupt(out: dict) -> dict:
    bad = copy.deepcopy(out)
    if "verdict" in bad:
        bad["verdict"] = "infeasible" if bad["verdict"] == "feasible" else "feasible"
    else:
        bad["block_system"]["blocks"][0]["dim"] += 1
    return bad


def main() -> int:
    root = Path.cwd()
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    problems = []
    for w in workloads.WORKLOADS:
        for trace in (False, True):
            out = run.run(w, 0, 0, trace, root, limit=SUBSET)
            want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {k: m["unit"] for k, m in out["metrics"].items()}
            if got != want:
                problems.append(f"{w} trace={trace}: metrics {sorted(got)} != {sorted(want)}")
            if any(not isinstance(m["value"], (int, float)) for m in out["metrics"].values()):
                problems.append(f"{w} trace={trace}: a metric value is not a number")
            if out["refused"] or out["wrong"] or out["attempted"] < SUBSET:
                problems.append(f"{w} trace={trace}: subset run failed: {out['examples']}")

        reqs = workloads.generate(w, 0, root)
        if workloads.fingerprint_problem(w, 0, reqs) is not None:
            problems.append(f"{w}: recorded fingerprint does not match seed 0")
        altered = reqs[1:] + reqs[:1] if w == "analyze-dense" else reqs[1:]
        if workloads.fingerprint_problem(w, 0, altered) is None:
            problems.append(f"{w}: altered inputs pass the fingerprint check")

        reqs = reqs[:SUBSET]
        ref = run.oracle_reference(reqs)[0] if w == "grid-ncss" else None
        checker = workloads.Checker(w, ref)
        result = run.run_worker(reqs, root / "src", 0, False, None, run.TIME_LIMIT_S)
        good = result["plain"][0]
        bad = dict(good, outputs=[corrupt(good["outputs"][0])] + good["outputs"][1:])
        clean = run.count_failures(w, reqs, [good], checker)
        dirty = run.count_failures(w, reqs, [bad], checker)
        if clean[:2] != (0, 0) or dirty[:2] != (0, 1):
            problems.append(f"{w}: corrupted output counted as {dirty[:2]}, clean as {clean[:2]}")
        print(f"{w}: ok" if not problems else f"{w}: {len(problems)} problem(s) so far")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

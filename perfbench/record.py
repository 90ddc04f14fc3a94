"""Rewrite expected.json and fingerprints.json from the current checkout.

    python3 perfbench/record.py

expected.json holds the reference answers the correctness gate compares
against: every scan-nsp verdict and lexicographically least witness, and
for every analyze-sparse input (which include the corpus sources of
analyze-dense) the block system, filtration dimensions and label-free
isotypic table.  fingerprints.json holds digests of the generated inputs.
Only re-record on purpose: the point of both files is that a later version
of the program is held to them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads
import worker

HERE = Path(__file__).resolve().parent
FINGERPRINT_SEEDS = range(100)


def _dump(tables: dict) -> str:
    """JSON with one line per innermost entry, so diffs stay readable."""
    def block(obj, indent):
        if not isinstance(obj, dict) or not any(isinstance(v, dict) for v in obj.values()):
            return json.dumps(obj)
        pad = " " * (indent + 1)
        items = [f"{pad}{json.dumps(k)}: {block(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"
    return block(tables, 0) + "\n"


def main() -> int:
    root = HERE.parent
    sys.path.insert(0, str(root / "src"))
    import blocksieve as bs

    scan = workloads.generate("scan-nsp", 0, root)
    outs = [worker._summary(worker._request(bs, req)()) for req in scan]
    problems = workloads.paper_problems(scan, outs)
    for i, problem in problems.items():
        print(f"reference disagrees with the paper: {scan[i]['id']}: {problem}", file=sys.stderr)
    expected = {
        "scan-nsp": {req["id"]: {"verdict": out["verdict"],
                                 "witness": workloads.canonical_witness(out["witness"])}
                     for req, out in zip(scan, outs)},
        "analyze": {req["source"]: workloads.canonical_analysis(
                        worker._summary(worker._request(bs, req)()))
                    for req in workloads.generate("analyze-sparse", 0, root)},
    }
    for key in expected:
        expected[key] = dict(sorted(expected[key].items()))
    (HERE / "expected.json").write_text(_dump(expected))

    prints = {}
    for w in workloads.WORKLOADS:
        seeds = {str(s): workloads.generate(w, s, root) for s in FINGERPRINT_SEEDS}
        entry = {"seeds": {s: workloads.digest(reqs) for s, reqs in seeds.items()}}
        if w != "analyze-dense":
            entry["set"] = workloads.digest(seeds["0"], ordered=False)
        prints[w] = entry
    (HERE / "fingerprints.json").write_text(_dump(prints))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

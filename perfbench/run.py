"""blocksieve benchmark: one workload, end-to-end or traced, from a checkout.

    python3 perfbench/run.py --workload grid-ncss --seed 1 --seconds 10 --trace 0

Run from the root of a blocksieve checkout (the package is imported from
./src).  The request set is generated from the seed and checked against the
recorded fingerprint; a worker process runs timed passes over it; every
output of every pass goes through the correctness gate, untimed.  With
--trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer ones (from a traced pass, with
the tracing overhead measured against an untraced pass).  End-to-end times
are reported at reference host speed (calibration.py); the line before the
result gives the raw wall time and the host's measured speed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import calibration
import workloads
from tracer import TARGETS

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 9
TIME_LIMIT_S = 170
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
SOLVER_CLOSES = ("budget", "R4", "R5", "R7", "R8", "R11", "RNC", "partition")
# Times the import first, so the calibration module's own imports are not preloaded.
IMPORT_TIMER = (
    "import sys, time; t = time.perf_counter(); import blocksieve; "
    "t = time.perf_counter() - t; sys.path.insert(0, sys.argv[1]); import calibration; "
    "print(calibration.scaled(t, calibration.sample(), calibration.sample()))"
)


def _env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def measure_setup(src: Path) -> float:
    """Median time a fresh interpreter takes to import blocksieve, at reference speed.

    One untimed import first, so the timed ones find compiled bytecode as an
    installed package would.
    """
    times = []
    for _ in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(HERE)], env=_env(src),
                             capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout))
    return statistics.median(times[1:])


def oracle_reference(reqs: list[dict]) -> tuple[dict, float, int]:
    """Oracle verdicts and witnesses for solver requests, with time and candidates.

    The time is at reference speed, each call bracketed by calibration samples.
    """
    import blocksieve as bs

    ref, total_s, candidates = {}, 0.0, 0
    before = calibration.sample()
    for req in reqs:
        t0 = time.perf_counter()
        cert = bs.oracle_solve(req["N"], req["r"], bs.NON_COSEMISIMPLE)
        t = time.perf_counter() - t0
        after = calibration.sample()
        total_s += calibration.scaled(t, before, after)
        before = after
        candidates += cert.stats["candidates"]
        out = cert.as_json_dict()
        ref[req["id"]] = {"verdict": out["verdict"],
                          "witness": workloads.canonical_witness(out.get("witness"))}
    return ref, total_s, candidates


def run_worker(reqs: list[dict], src: Path, seconds: float, trace: bool,
               spans_path: Path | None, timeout: float) -> dict:
    job = {"src": str(src), "requests": reqs, "seconds": seconds, "trace": trace,
           "spans_path": str(spans_path) if spans_path else None}
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed with code {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def tail_percentile(n: int) -> float:
    """Highest percentile on the ladder with at least 10 of n requests beyond it."""
    return next((p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10), 50.0)


def nearest_rank(sorted_values: list[float], p: float) -> float:
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def count_failures(workload: str, reqs: list[dict], passes: list[dict],
                   checker: workloads.Checker) -> tuple[int, int, list[str]]:
    """(refused, wrong, examples) over every output of every pass."""
    refused = wrong = 0
    examples = []
    for p in passes:
        paper = workloads.paper_problems(reqs, p["outputs"]) if workload == "scan-nsp" else {}
        for i, (req, out) in enumerate(zip(reqs, p["outputs"])):
            problem = checker.problem(req, out) or paper.get(i)
            if problem is None:
                continue
            if out.get("refused"):
                refused += 1
            else:
                wrong += 1
            if len(examples) < 5:
                examples.append(f"{req['id']}: {problem}")
    return refused, wrong, examples


def scaled_latencies(p: dict) -> list[float]:
    """A pass's request latencies at reference speed (calibration.py)."""
    c = p["calibration_s"]
    return [calibration.scaled(t, c[i], c[i + 1]) for i, t in enumerate(p["latency_s"])]


def loop_wall(passes: list[dict]) -> float:
    """Wall time of the request loop at reference speed, best of the passes."""
    return min(sum(scaled_latencies(p)) for p in passes)


def end_to_end_values(result: dict, setup_s: float) -> tuple[dict, str]:
    """Timings are best-of-passes: host contention only ever adds time."""
    plain = result["plain"]
    scaled = [scaled_latencies(p) for p in plain]
    per_request = sorted(map(min, zip(*scaled)))
    p_tail = tail_percentile(len(per_request))
    raw_wall = min(sum(p["latency_s"]) for p in plain)
    values = {
        "setup_s": setup_s,
        "wall_s": loop_wall(plain),
        "latency_p50_ms": 1000 * statistics.median(per_request),
        "latency_tail_ms": 1000 * nearest_rank(per_request, p_tail),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    note = (f"latency_tail_ms is p{p_tail:g} over {len(per_request)} requests "
            f"(each the best of {len(plain)} passes); raw wall {raw_wall:.3f} s, "
            f"host at {raw_wall / values['wall_s']:.2f}x the reference time")
    return values, note


def per_layer_values(result: dict, oracle: tuple[float, int] | None) -> dict:
    """Per-layer metrics from the first traced pass.

    Span times are scaled to reference speed by that pass's host factor.
    """
    import blocksieve.solver

    first = result["traced"][0]
    host_factor = sum(first["latency_s"]) / sum(scaled_latencies(first))
    values = {}
    layers = result["layers"]
    for name in TARGETS:
        if name in result["absent"]:
            continue
        agg = layers.get(name, {})
        for field in ("calls", "max_rows", "max_cols"):
            values[f"{name}.{field}"] = agg.get(field, 0)
        for field in ("s", "self_s"):
            values[f"{name}.{field}"] = agg.get(field, 0) / host_factor
    stats = [o["stats"] for o in first["outputs"] if "stats" in o]
    closed = Counter()
    for s in stats:
        closed.update(s.get("closed", {}))
    nodes = sum(s.get("nodes", 0) for s in stats)
    supports = sum(s.get("supports_checked", 0) for s in stats)
    solve_s = values.get("solver.solve.s", 0.0)
    values.update({
        "solver.nodes": nodes,
        "solver.supports_checked": supports,
        "solver.nodes_per_s": nodes / solve_s if solve_s else 0.0,
        "solver.phase2_yield": (supports - closed["partition"]) / supports if supports else 0.0,
    })
    values.update({f"solver.closed.{k}": closed[k] for k in SOLVER_CLOSES})
    cap = getattr(blocksieve.solver, "DEFAULT_NODE_CAP", None)
    if cap:
        values["solver.cap_use_max"] = max((s.get("nodes", 0) for s in stats), default=0) / cap
    oracle_s, candidates = oracle or (0.0, 0)
    values.update({
        "oracle.solve.s": oracle_s,
        "oracle.candidates": candidates,
        "oracle.slowdown": solve_s / oracle_s if oracle_s else 0.0,
        "trace.overhead_s": loop_wall(result["traced"]) - loop_wall(result["plain"]),
        "trace.spans": result["spans"],
    })
    return values


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path,
        limit: int | None = None) -> dict:
    """Everything but the printing; limit keeps the first requests only."""
    started = time.monotonic()
    src = root / "src"
    sys.path.insert(0, str(src))
    reqs = workloads.generate(workload, seed, root)
    fp_problem = None if limit else workloads.fingerprint_problem(workload, seed, reqs)
    reqs = reqs[:limit] if limit else reqs
    setup_s = measure_setup(src)
    oracle = None
    ref = None
    if workload == "grid-ncss":
        ref, oracle_s, candidates = oracle_reference(reqs)
        oracle = (oracle_s, candidates)
    checker = workloads.Checker(workload, ref)
    spans_path = None
    if trace:
        spans_path = root / ".perfbench_out" / f"spans-{workload}-seed{seed}.jsonl"
        spans_path.parent.mkdir(exist_ok=True)
    result = run_worker(reqs, src, seconds, trace, spans_path,
                        TIME_LIMIT_S - (time.monotonic() - started))
    passes = result["plain"] + result["traced"]
    refused, wrong, examples = count_failures(workload, reqs, passes, checker)
    attempted = sum(len(p["outputs"]) for p in passes)
    e2e, tail_note = end_to_end_values(result, setup_s)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    values = per_layer_values(result, oracle) if trace else e2e
    return {
        "fingerprint": workloads.digest(reqs),
        "fingerprint_problem": fp_problem,
        "requests": len(reqs),
        "passes": (len(result["plain"]), len(result["traced"])),
        "refused": refused,
        "wrong": wrong,
        "attempted": attempted,
        "examples": examples,
        "tail_note": tail_note,
        "absent": sorted(set(wanted) - set(values)),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in wanted.items() if k in values},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "blocksieve" / "__init__.py").is_file() or not (root / "corpus").is_dir():
        print("run from the root of a blocksieve checkout: src/blocksieve and corpus/ "
              "are missing", file=sys.stderr)
        return 2
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    failed = out["refused"] + out["wrong"]
    print(f"workload {args.workload}, seed {args.seed}: {out['requests']} requests, "
          f"{out['passes'][0]} untraced + {out['passes'][1]} traced passes, "
          f"inputs sha256 {out['fingerprint'][:16]}")
    print(f"failed_frac {failed / out['attempted']:.4f} "
          f"({out['refused']} refused, {out['wrong']} wrong, of {out['attempted']} attempted)")
    if not args.trace:
        print(out["tail_note"])
    for line in out["examples"]:
        print(f"failure: {line}", file=sys.stderr)
    if out["fingerprint_problem"]:
        print(f"fingerprint: {out['fingerprint_problem']}", file=sys.stderr)
    if out["absent"]:
        print(f"absent metrics (target missing): {', '.join(out['absent'])}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and out["fingerprint_problem"] is None,
        "attempted": out["attempted"],
        "failed": failed,
        "metrics": out["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

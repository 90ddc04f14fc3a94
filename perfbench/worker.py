"""Timed request loop for one workload, in a process of its own.

Reads one JSON job on stdin: {"src", "requests", "seconds", "trace",
"spans_path"}.  Runs whole passes over the requests, one request at a time
(a closed loop with one client), until another pass would end after
`seconds`; at least one pass runs.  With "trace" set, untraced and traced
passes alternate, at least one of each.  A calibration sample is taken before
the first request and after every request (see calibration.py).  Writes one
JSON object on stdout with every pass's per-request latencies, calibration
samples and output summaries, the process's peak RSS and, when tracing, the
span aggregates.
"""

from __future__ import annotations

import json
import resource
import sys
from time import perf_counter

import calibration

# Exceptions that are explicit refusals rather than wrong answers.
REFUSALS = {"SearchCapExceeded", "BoundsError", "NonSplitCoradicalError"}


def _request(bs, req):
    """A zero-argument call doing what the CLI command does for req.

    Library functions are looked up at call time, so the tracer's rebinding
    of module attributes applies.
    """
    if req["kind"] == "solve":
        N, r = req["N"], req["r"]
        flags = bs.NSP if req["regime"] == "nsp" else bs.NON_COSEMISIMPLE
        return lambda: bs.solve(bs.FeasibilityProblem(N, r, flags)).as_json_dict()
    data = req["text"].encode("utf-8")
    return lambda: bs.analyze(bs.parse_coalgebra(data), bs.PLAIN).as_json_dict()


def _summary(out: dict) -> dict:
    """The parts of an output the correctness gate and the solver counts need."""
    if "verdict" in out and "stats" in out:
        return {"verdict": out["verdict"], "witness": out.get("witness"), "stats": out["stats"]}
    dims = {c["label"]: c["d"] for c in out["components"]}
    return {
        "block_system": out["block_system"],
        "filtration_dims": out["filtration_dims"],
        "label_free": sorted([q["level"], dims[q["tau"]], dims[q["mu"]], q["dim"]]
                             for q in out["q_table"]),
    }


def run_pass(calls, tracer=None) -> dict:
    latencies = []
    samples = [calibration.sample()]
    outputs = []
    for i, call in enumerate(calls):
        t0 = perf_counter()
        try:
            if tracer is None:
                out = call()
            else:
                tracer.request = i
                out = tracer.call("request", call)
        except Exception as exc:  # a failed request is counted, not fatal
            out = {"error": type(exc).__name__, "refused": type(exc).__name__ in REFUSALS}
        latencies.append(perf_counter() - t0)
        samples.append(calibration.sample())
        outputs.append(out)
    return {"latency_s": latencies, "calibration_s": samples,
            "outputs": [o if "error" in o else _summary(o) for o in outputs]}


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    import blocksieve as bs
    from tracer import Tracer

    calls = [_request(bs, req) for req in job["requests"]]
    seconds = job["seconds"]
    tracer = Tracer() if job["trace"] else None
    plain, traced = [], []
    start = perf_counter()
    while True:
        plain.append(run_pass(calls))
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            mark = len(tracer.spans)
            tracer.install()
            try:
                traced.append(run_pass(calls, tracer))
            finally:
                tracer.uninstall()
            if len(traced) > 1:
                del tracer.spans[mark:]  # counts come from the first traced pass
        elapsed = perf_counter() - start
        rounds = len(plain)
        if elapsed + elapsed / rounds > seconds:
            break
    result = {"plain": plain, "traced": traced, "peak_rss_mb": rss_kb / 1024}
    if tracer is not None:
        result["layers"] = tracer.aggregate()
        result["absent"] = sorted(set(tracer.absent))
        result["spans"] = len(tracer.spans)
        if job.get("spans_path"):
            tracer.write(job["spans_path"])
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's correctness gate passes on the analyzer workloads and on scan-nsp.

Every analyze-sparse, analyze-dense and scan-nsp request at seed 1 is built
and run the way perfbench/worker.py runs it, summarized the way it
summarizes it, and checked by perfbench's own Checker (and, for scan-nsp,
against the paper's exclusion sets), so a change that breaks the gate fails
here before any benchmark run.  grid-ncss is covered by the solver/oracle
grid equivalence in test_oracle.py.  Both solver workloads' summed node and
close counts are pinned.  perfbench is imported, not changed.
"""

import importlib
import sys
from collections import Counter
from pathlib import Path

import pytest

import blocksieve

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# perfbench's modules import each other by these top-level names
PERFBENCH_MODULES = ("calibration", "worker", "workloads")


@pytest.fixture
def perfbench(monkeypatch):
    """(worker, workloads) from perfbench/, with perfbench/ on sys.path and
    its modules in sys.modules for this test only."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in PERFBENCH_MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("worker"), importlib.import_module("workloads")
    for name in PERFBENCH_MODULES:
        sys.modules.pop(name, None)


def run_through_the_gate(perfbench, workload):
    """(requests, outputs, {request id: problem}) for the workload at seed 1."""
    worker, workloads = perfbench
    reqs = workloads.generate(workload, 1, PERFBENCH.parent)
    assert workloads.fingerprint_problem(workload, 1, reqs) is None
    checker = workloads.Checker(workload)
    outputs = [worker._summary(worker._request(blocksieve, req)()) for req in reqs]
    problems = {}
    for req, out in zip(reqs, outputs):
        problem = checker.problem(req, out)
        if problem is not None:
            problems[req["id"]] = problem
    return reqs, outputs, problems


@pytest.mark.parametrize("workload", ["analyze-sparse", "analyze-dense"])
def test_analyzer_workload_passes_the_gate(perfbench, workload):
    reqs, _, problems = run_through_the_gate(perfbench, workload)
    assert len(reqs) == {"analyze-sparse": 43, "analyze-dense": 100}[workload]
    assert problems == {}


# The solver's counts summed over each solver workload's requests, as
# `perfbench/run.py --trace 1` reports them; the request order a seed draws
# does not change them.  A change to the search that keeps its verdicts and
# witnesses must keep these too: the same nodes, closed for the same reasons.
SOLVER_COUNTS = {
    "scan-nsp": {
        "nodes": 8_076_229, "supports": 8_496, "budget": 7_169_460, "R4": 200_226,
        "R5": 75_265, "R7": 8_200, "R8": 1_574, "R11": 329_016, "RNC": 1_751,
        "partition": 2_747,
    },
    "grid-ncss": {
        "nodes": 4_563_057, "supports": 41_764, "budget": 3_591_571, "R4": 207_676,
        "R5": 72_716, "R7": 0, "R8": 0, "R11": 302_596, "RNC": 776, "partition": 2_750,
    },
}


def summed_counts(outputs) -> dict:
    """Nodes, supports checked and closes per reason, summed over solver outputs."""
    total = Counter()
    for out in outputs:
        stats = out["stats"]
        total.update(stats["closed"], nodes=stats["nodes"], supports=stats["supports_checked"])
    return dict(total)


def test_scan_nsp_workload_passes_the_gate(perfbench):
    """Verdicts and witnesses as recorded, the paper's exclusion sets, every
    witness passing the NSP rule check, and the summed solver counts."""
    _, workloads = perfbench
    reqs, outputs, problems = run_through_the_gate(perfbench, "scan-nsp")
    for i, problem in workloads.paper_problems(reqs, outputs).items():
        problems[reqs[i]["id"]] = problem
    assert len(reqs) == 160
    assert problems == {}
    assert summed_counts(outputs) == SOLVER_COUNTS["scan-nsp"]


def test_grid_ncss_workload_keeps_its_solver_counts(perfbench):
    """Every grid-ncss solve, run as the worker runs it (the oracle
    comparison is test_oracle.py's), sums to the recorded counts."""
    worker, workloads = perfbench
    reqs = workloads.generate("grid-ncss", 1, PERFBENCH.parent)
    outputs = [worker._request(blocksieve, req)() for req in reqs]
    assert len(reqs) == 133
    expected = {k: n for k, n in SOLVER_COUNTS["grid-ncss"].items() if n}
    assert summed_counts(outputs) == expected


def test_perfbench_modules_do_not_outlive_the_fixture():
    """Runs after the gate tests above: the top-level names worker,
    workloads and calibration are free again for the rest of the session."""
    assert str(PERFBENCH) not in sys.path
    assert not any(name in sys.modules for name in PERFBENCH_MODULES)

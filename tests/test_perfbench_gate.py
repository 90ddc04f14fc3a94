"""The benchmark's correctness gate passes on the analyzer workloads and on scan-nsp.

Every analyze-sparse, analyze-dense and scan-nsp request at seed 1 is built
and run the way perfbench/worker.py runs it, summarized the way it
summarizes it, and checked by perfbench's own Checker (and, for scan-nsp,
against the paper's exclusion sets), so a change that breaks the gate fails
here before any benchmark run.  grid-ncss is covered by the solver/oracle
grid equivalence in test_oracle.py.  perfbench is imported, not changed.
"""

import importlib
import sys
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


def test_scan_nsp_workload_passes_the_gate(perfbench):
    """Verdicts and witnesses as recorded, the paper's exclusion sets, and
    every witness passing the NSP rule check."""
    _, workloads = perfbench
    reqs, outputs, problems = run_through_the_gate(perfbench, "scan-nsp")
    for i, problem in workloads.paper_problems(reqs, outputs).items():
        problems[reqs[i]["id"]] = problem
    assert len(reqs) == 160
    assert problems == {}


def test_perfbench_modules_do_not_outlive_the_fixture():
    """Runs after the gate tests above: the top-level names worker,
    workloads and calibration are free again for the rest of the session."""
    assert str(PERFBENCH) not in sys.path
    assert not any(name in sys.modules for name in PERFBENCH_MODULES)

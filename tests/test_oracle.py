import math
import random
import time
import tracemalloc

import pytest

from blocksieve import oracle
from blocksieve.blocks import NON_COSEMISIMPLE, NSP, PLAIN, BlockSystem, total_dim
from blocksieve.oracle import OracleCapError, oracle_enumerate, oracle_solve
from blocksieve.rules import check
from blocksieve.solver import FeasibilityProblem, minimal_form, solve

from conftest import grid_points


class TestOracleSolve:
    def test_20_2_feasible(self):
        assert oracle_solve(20, 2, NSP).feasible

    def test_22_2_infeasible(self):
        assert not oracle_solve(22, 2, NSP).feasible

    def test_4_2_skew_allowed(self):
        cert = oracle_solve(4, 2, NON_COSEMISIMPLE)
        assert cert.feasible
        assert cert.witness == BlockSystem(2, {(0, 1, 1): 2, (1, 1, 1): 2})

    def test_answers_within_the_default_cap(self):
        # (105, 3) and (45, 9) are among the paper's dimensions
        for n, r, feasible in [(70, 5, True), (105, 3, True), (45, 9, False)]:
            cert = oracle_solve(n, r, NSP)
            assert cert.feasible == feasible, (n, r)
            if cert.feasible:
                assert check(cert.witness, NSP) == []
                assert total_dim(cert.witness) == n


class TestStepCap:
    # (N, r, cells of the grid, placements of the walk): a feasible call, whose
    # walk stops at its witness, and an infeasible one, whose walk exhausts
    @pytest.mark.parametrize("n, r, cells, placements", [(20, 2, 147, 7), (22, 2, 163, 66)])
    def test_cap_at_the_need_and_one_below(self, monkeypatch, n, r, cells, placements):
        expected = oracle_solve(n, r, NSP).as_json_dict()
        monkeypatch.setattr(oracle, "STEP_CAP", cells + placements)
        assert oracle_solve(n, r, NSP).as_json_dict() == expected
        monkeypatch.setattr(oracle, "STEP_CAP", cells + placements - 1)
        with pytest.raises(OracleCapError) as err:
            oracle_solve(n, r, NSP)
        assert str(err.value).startswith(f"oracle refused: N={n}, r={r} passed the step cap")
        assert f"after {placements - 1} placements over {cells} cells" in str(err.value)
        with pytest.raises(OracleCapError, match="oracle refused"):
            oracle_enumerate(n, r, NSP)

    def test_cap_below_the_grid(self, monkeypatch):
        monkeypatch.setattr(oracle, "STEP_CAP", 146)
        with pytest.raises(OracleCapError, match="N=20, r=2 has a grid of 147 cells"):
            oracle_solve(20, 2, NSP)

    def test_grid_past_the_cap_is_refused_before_it_is_built(self):
        # (400, 1) has 144,039 cells, some tens of MB if built; (10**6, 1) has
        # about 10**12, so it runs only once the smaller one is known refused
        for n in (400, 10**6):
            tracemalloc.start()
            t0 = time.perf_counter()
            try:
                with pytest.raises(OracleCapError, match=f"N={n}, r=1 has a grid of"):
                    oracle_solve(n, 1, PLAIN)
                elapsed = time.perf_counter() - t0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 1024, (n, peak)
            assert elapsed < 0.5, (n, elapsed)


    def test_grid_of_more_levels_than_the_cap_is_refused_before_the_d_loop(self):
        # the d loop runs to sqrt(N): about 6 s at N = 10**14
        t0 = time.perf_counter()
        with pytest.raises(OracleCapError, match=r"N=10{14}, r=1 has a grid of at least"):
            oracle_solve(10**14, 1, PLAIN)
        assert time.perf_counter() - t0 < 0.05

    def test_huge_r_is_refused_without_looping_to_sqrt_n(self):
        # one level, so the cells pass the cap once max_d does; the d loop
        # would run to sqrt(N) = 1.4 million
        t0 = time.perf_counter()
        with pytest.raises(OracleCapError, match=r"r=10{12} has a grid of at least"):
            oracle_solve(2 * 10**12, 10**12, PLAIN)
        assert time.perf_counter() - t0 < 0.05

    def test_huge_prime_r_stops_at_its_cube_root(self):
        # r is prime, so max_d is 1: the loop stops at d = 10**4, where it
        # knows r's square part, not at sqrt(N) = 1.4 million
        r = 999_999_999_989
        t0 = time.perf_counter()
        assert oracle._grid(2 * r, r) == (1, 1)
        assert time.perf_counter() - t0 < 0.05

    def test_grid_is_the_loop_to_sqrt_n(self):
        # the bounded d loop gives the grid, or the refusal, of a loop over
        # every d up to sqrt(N)
        def outcome(grid, n, r):
            try:
                return grid(n, r)
            except OracleCapError as exc:
                return str(exc)

        points = grid_points(random.Random(31), 1000, 400)
        outcomes = [outcome(oracle._grid, n, r) for n, r in points]
        assert outcomes == [outcome(_grid_to_sqrt_n, n, r) for n, r in points]
        # N < 4r is where r's square part sets max_d; many grids are refused
        assert sum(type(x) is tuple and x[1] > 1 and n < 4 * r
                   for x, (n, r) in zip(outcomes, points)) > 100
        assert sum(type(x) is str for x in outcomes) > 100


def _grid_to_sqrt_n(n: int, r: int) -> tuple[int, int]:
    """Reference: oracle._grid as it was before its d loop was bounded by r's square part."""
    max_level = max(n // r - 1, 0)
    max_d = d = 1
    cells = max_level
    while (d + 1) ** 2 <= n and cells <= oracle.STEP_CAP:
        d += 1
        if math.lcm(d * d, r) <= n - r:
            max_d = d
            cells = (max_d - 1) + max_level * max_d**2
    if cells > oracle.STEP_CAP:
        least = "at least " if (d + 1) ** 2 <= n else ""
        raise OracleCapError(f"oracle refused: N={n}, r={r} has a grid of {least}{cells} "
                             f"cells, past the step cap of {oracle.STEP_CAP}")
    return max_level, max_d


class TestArguments:
    # N and r are ints (not bools) and positive, flags a ModeFlags, as the solver asks
    @pytest.mark.parametrize("args, message", [
        ((12, True, NSP), "r must be an integer, got True"),
        ((12.0, 3, NSP), "N must be an integer, got 12.0"),
        ((12, 3, None), "flags must be a ModeFlags, got None"),
        ((0, 3, NSP), "N must be positive, got 0"),
        ((12, -3, NSP), "r must be positive, got -3"),
    ])
    @pytest.mark.parametrize("entry", [oracle_solve, oracle_enumerate])
    def test_rejected(self, entry, args, message):
        with pytest.raises(ValueError, match=message):
            entry(*args)


class TestOracleEnumerate:
    def test_42_3_contains_minimal_form(self):
        systems = oracle_enumerate(42, 3, NSP)
        assert systems
        assert minimal_form(3, 2) in systems

    def test_6_3_empty(self):
        assert oracle_enumerate(6, 3, NSP) == []

    def test_3_3_cosemisimple(self):
        assert oracle_enumerate(3, 3, PLAIN) == [BlockSystem(3, {(0, 1, 1): 3})]

    def test_canonical_order_and_rule_agreement(self):
        for (n, r, flags) in [(42, 3, NSP), (24, 2, NSP), (12, 2, NON_COSEMISIMPLE)]:
            systems = oracle_enumerate(n, r, flags)
            keys = [s.entries() for s in systems]
            assert keys == sorted(keys)
            for s in systems:
                assert check(s, flags) == []
                assert total_dim(s) == n


class TestSolverAgreement:
    # the full N <= 60 grid is exercised by the acceptance suite; this is the
    # fast cross-section run on every test invocation
    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("nsp", [True, False])
    def test_verdicts_and_witnesses_match(self, r, nsp):
        # both sides document the lexicographically least witness over the
        # same bounded space, so feasible answers must coincide exactly
        flags = NSP if nsp else NON_COSEMISIMPLE
        for n in range(r, 31, r):
            a = solve(FeasibilityProblem(n, r, flags))
            b = oracle_solve(n, r, flags)
            assert a.verdict == b.verdict, (n, r, nsp)
            if a.feasible:
                assert a.witness == b.witness, (n, r, nsp)

import copy
import functools
import itertools
import math
import os
import pickle
import random
import subprocess
import sys
import time
import tracemalloc
from bisect import bisect_left
from pathlib import Path

import pytest

from blocksieve.blocks import (
    NON_COSEMISIMPLE,
    NSP,
    PLAIN,
    BlockSystem,
    ModeFlags,
    total_dim,
)
from blocksieve.oracle import oracle_enumerate
from blocksieve.rules import Support, backed, check, least_dim, unbacked
from blocksieve.solver import (
    GROUP_CAP,
    LEVEL_CAP,
    BoundsError,
    FeasibilityProblem,
    SearchCapExceeded,
    _case_bound,
    _grid,
    _multipliers,
    _Search,
    admissible_group_orders,
    lower_bound,
    minimal_form,
    scan,
    solve,
    surveyed_group_orders,
)

from conftest import assert_value_type, grid_points


SRC = str(Path(__file__).resolve().parent.parent / "src")


def lcm(a, b):
    return a * b // math.gcd(a, b)


class TestLowerBound:
    @pytest.mark.parametrize(
        "r,n_min,argmin",
        [
            (3, 42, {2, 3}),
            (2, 20, {2}),
            (1, 14, {2}),
            (5, 70, {2}),
            (7, 98, {2}),
        ],
    )
    def test_values(self, r, n_min, argmin):
        assert lower_bound(r) == (n_min, frozenset(argmin))

    def test_matches_direct_minimum(self):
        for r in range(1, 11):
            direct = {d: (2 * d + 2) * r + 2 * lcm(d * d, r) for d in range(2, 40)}
            best = min(direct.values())
            n_min, argmin = lower_bound(r)
            assert n_min == best
            assert argmin == frozenset(d for d, v in direct.items() if v == best)


class TestMinimalForm:
    def test_l32_entries(self):
        assert minimal_form(3, 2) == BlockSystem(3, {
            (0, 1, 1): 3, (0, 2, 2): 12,
            (1, 2, 1): 6, (1, 1, 2): 6,
            (2, 1, 1): 3, (2, 2, 2): 12,
        })

    def test_totals(self):
        assert total_dim(minimal_form(2, 2)) == 20
        assert total_dim(minimal_form(3, 4)) == 126

    def test_passes_rules_and_total_formula(self):
        for r in range(1, 9):
            for d in range(2, 6):
                s = minimal_form(r, d)
                assert check(s, NSP) == []
                assert total_dim(s) == (2 * d + 2) * r + 2 * lcm(d * d, r)


class TestLevelGroups:
    def test_flat_table_matches_a_direct_recomputation(self):
        # every per-group list, read off the statements: the cells in
        # canonical order, each member of its least dimension, the least
        # total in units of r, the rows and off-diagonal rows a group
        # occupies, the groups using each d and the groups fitting each slack
        for r in range(1, 41):
            for max_d in range(1, 13):
                N = r * (2 + (7 * r + max_d) % 37)
                search = _Search(N, r, False, True, 2, max_d, 1)
                cells = [(a, b) for a in range(1, max_d + 1) for b in range(a, max_d + 1)]
                least = [least_dim(r, a, b) for a, b in cells]
                costs = [m if a == b else 2 * m for (a, b), m in zip(cells, least)]
                assert search.firsts == cells
                assert search.divisors == least
                assert [u * r for u in search.units] == costs
                assert search.row_masks == [1 << a | 1 << b for a, b in cells]
                assert search.off_masks == [0 if a == b else 1 << a | 1 << b for a, b in cells]
                assert search.diag == [j for j, (a, b) in enumerate(cells)
                                       if a == b > 1 and least[j] <= N - r]
                assert search.uses == {d: sum(1 << j for j, cell in enumerate(cells) if d in cell)
                                       for d in range(1, max_d + 1)}
                assert search.fits == [sum(1 << j for j, c in enumerate(costs) if c <= s * r)
                                       for s in range(N // r + 1)]

    def test_coradical_units_cost_their_least_dimensions(self):
        for r in range(1, 13):
            search = _Search(30 * r, r, False, True, 2, 6, 1)
            assert [(search.firsts[j], search.divisors[j]) for j in search.diag] == [
                ((d, d), least_dim(r, d, d)) for d in range(2, 7) if least_dim(r, d, d) <= 29 * r
            ]

    @pytest.mark.parametrize("N, r, flags", [(161, 7, NSP), (45, 3, NON_COSEMISIMPLE)])
    def test_carried_case_state_matches_its_statements(self, monkeypatch, N, r, flags):
        # the bound and R11 mask each coradical case carries down level 0,
        # against _case_bound and rules.unbacked on the case's own blocks
        cases = []
        enter = _Search._subset_dfs

        def spy(self, level, gi, slack, open_rows, shut):
            if level == 1 and shut is None:  # a case's first positive level
                assert all(n == 0 for n, _ in self.stack)
                ds = [self.firsts[j][0] for _, j in self.stack[1:]]
                assert [self.firsts[j] for _, j in self.stack] == [(d, d) for d in [1, *ds]]
                coradical = Support(1, self.firsts[-1][1], [(0, d, d) for d in [1, *ds]])
                assert self.bound == _case_bound(r, [(d, least_dim(r, d, d)) for d in ds])
                assert self.unbacked == unbacked(coradical, self.uses)
                cases.append(tuple(ds))
            return enter(self, level, gi, slack, open_rows, shut)

        monkeypatch.setattr(_Search, "_subset_dfs", spy)
        cert = solve(FeasibilityProblem(N, r, flags))
        assert len(cases) == len(set(cases)) == {161: 10, 45: 5}[N]
        assert cert.feasible


class TestR11Masks:
    def test_case_masks_agree_with_backed_on_random_coradical_supports(self):
        # a case's R11 mask, the OR of the group masks of the d level 0
        # lacks, closes exactly the groups that rules.backed refuses and the
        # rule's statement names: those with a d whose (0, d, d) is absent
        rng = random.Random(39)
        seen = set()
        for _ in range(500):
            max_d = rng.randint(2, 9)
            search = _Search(10_000, 1, False, True, 2, max_d, 1)
            coradical = {1} | {d for d in range(2, max_d + 1) if rng.random() < 0.5}
            table = Support(1, max_d, [(0, d, d) for d in coradical])
            mask = unbacked(table, search.uses)
            for j, (a, b) in enumerate(search.firsts):
                closed = bool(mask >> j & 1)
                assert closed == (not backed(table, (a, b))) == (not {a, b} <= coradical)
                seen.add(closed)
        assert seen == {True, False}


class TestGrid:
    """Every search covers the grid that provably holds every rule-satisfying
    system, or is refused."""

    def test_stats_name_the_searched_grid(self):
        # largest d with lcm(d*d, 3) <= 39 is 6 (lcm(36,3) = 36); the budget
        # prune removes the infeasible intermediate sizes 4 and 5 on its own
        cert = solve(FeasibilityProblem(42, 3, NSP))
        assert cert.stats["bounds"] == {"max_level": 13, "max_d": 6}

    def test_level_cap_guard(self):
        with pytest.raises(BoundsError, match="level cap"):
            solve(FeasibilityProblem(10_000, 1))

    def test_group_cap_refuses_wide_grid_before_building_it(self):
        # max_d = 1000 means 500,500 branching units per level; building them
        # would take seconds and hundreds of MB before the first node.  The d
        # loop stops at d = 100, the first max_d past the cap.
        start = time.perf_counter()
        with pytest.raises(BoundsError, match="at least 5050 branching units"):
            solve(FeasibilityProblem(2_000_000, 1_000_000), node_cap=10)
        assert time.perf_counter() - start < 0.2

    def test_group_cap_refuses_huge_r_without_looping_to_sqrt_n(self):
        # the d loop would run to sqrt(N) = 1.4 million
        start = time.perf_counter()
        with pytest.raises(BoundsError, match="at least 5050 branching units"):
            solve(FeasibilityProblem(2 * 10**12, 10**12))
        assert time.perf_counter() - start < 0.05

    def test_group_cap_boundary(self):
        # at N = 2r, max_d is the largest d with d*d | r: 99 * 100 / 2 = 4950
        # units fit under GROUP_CAP, 100 * 101 / 2 do not
        cert = solve(FeasibilityProblem(19_602, 9_801))
        assert cert.feasible
        assert cert.stats["bounds"] == {"max_level": 1, "max_d": 99}
        with pytest.raises(BoundsError, match="group cap"):
            solve(FeasibilityProblem(20_000, 10_000))

    def test_huge_prime_r_stops_at_its_cube_root(self):
        # r is prime, so max_d is 1: the loop stops at d = 10**4, where it
        # knows r's square part, not at sqrt(N) = 1.4 million
        r = 999_999_999_989
        start = time.perf_counter()
        assert _grid(2 * r, r) == (1, 1)
        assert time.perf_counter() - start < 0.05

    def test_grid_is_the_loop_to_sqrt_n(self):
        # the bounded d loop gives the grid, or the refusal, of a loop over
        # every d up to sqrt(N)
        def outcome(grid, N, r):
            try:
                return grid(N, r)
            except BoundsError as exc:
                return str(exc)

        points = grid_points(random.Random(29), 1000, LEVEL_CAP + 1)
        outcomes = [outcome(_grid, N, r) for N, r in points]
        assert outcomes == [outcome(_grid_to_sqrt_n, N, r) for N, r in points]
        # N < 4r is where r's square part sets max_d; many grids are refused
        assert sum(type(x) is tuple and x[1] > 1 and N < 4 * r
                   for x, (N, r) in zip(outcomes, points)) > 100
        assert sum(type(x) is str for x in outcomes) > 100


def _grid_to_sqrt_n(N: int, r: int) -> tuple[int, int]:
    """Reference: _grid as it was before its d loop was bounded by r's square part."""
    max_level = max(N // r - 1, 0)
    if max_level > LEVEL_CAP:
        raise BoundsError(f"default max_level {max_level} exceeds the level cap {LEVEL_CAP}")
    max_d = d = 1
    while (d + 1) ** 2 <= N and max_d * (max_d + 1) // 2 <= GROUP_CAP:
        d += 1
        if math.lcm(d * d, r) <= N - r:
            max_d = d
    groups = max_d * (max_d + 1) // 2
    if groups > GROUP_CAP:
        least = "at least " if (d + 1) ** 2 <= N else ""
        raise BoundsError(
            f"N={N}, r={r} has max_d {least}{max_d}, so {least}{groups} branching "
            f"units per level, above the group cap of {GROUP_CAP}"
        )
    return max_level, max_d


class TestSolve:
    def test_42_3_feasible_with_minimal_form_witness(self):
        cert = solve(FeasibilityProblem(42, 3, NSP))
        assert cert.feasible
        assert cert.witness == minimal_form(3, 2)
        assert check(cert.witness, NSP) == []
        assert total_dim(cert.witness) == 42

    def test_45_3_infeasible(self):
        cert = solve(FeasibilityProblem(45, 3, NSP))
        assert not cert.feasible
        assert cert.refutation_summary

    def test_every_plain_point_is_feasible(self):
        # the pointed chain (n,1,1) = r for n < N/r passes every rule, so only
        # NON_COSEMISIMPLE and NSP problems are refuted, and their refutation
        # traces name RNC
        points = [(n, r) for n in range(1, 41) for r in range(1, n + 1) if n % r == 0]
        assert len(points) == 158
        for n, r in points:
            assert solve(FeasibilityProblem(n, r, PLAIN)).feasible, (n, r)

    def test_4_2_feasible_with_skew_primitives(self):
        cert = solve(FeasibilityProblem(4, 2, NON_COSEMISIMPLE))
        assert cert.feasible
        assert cert.witness == BlockSystem(2, {(0, 1, 1): 2, (1, 1, 1): 2})

    def test_30_6_infeasible_below_lower_bound(self):
        assert not solve(FeasibilityProblem(30, 6, NSP)).feasible

    def test_non_divisor_is_immediately_infeasible(self):
        cert = solve(FeasibilityProblem(44, 3, NSP))
        assert not cert.feasible
        assert any("R1" in line for line in cert.refutation_summary)
        assert cert.stats["nodes"] == 0

    def test_deterministic(self):
        a = solve(FeasibilityProblem(42, 3, NSP))
        b = solve(FeasibilityProblem(42, 3, NSP))
        assert a.witness == b.witness
        assert a.stats == b.stats

    def test_witnesses_always_verified(self):
        for n in range(20, 61, 4):
            cert = solve(FeasibilityProblem(n, 2, NSP))
            if cert.feasible:
                assert check(cert.witness, NSP) == []
                assert total_dim(cert.witness) == n

    def test_node_cap_refusal(self):
        with pytest.raises(SearchCapExceeded):
            solve(FeasibilityProblem(42, 3, NSP), node_cap=5)

    def test_nonpositive_node_cap_refused_before_any_answer(self):
        # (7, 2) has an immediate R1 answer, (8, 2) needs a search
        for cap in (0, -1):
            for n in (7, 8):
                with pytest.raises(ValueError, match=f"node_cap must be positive, got {cap}"):
                    solve(FeasibilityProblem(n, 2), node_cap=cap)

    def test_nonpositive_node_cap_refused_by_surveys_that_search_nothing(self):
        # 7 is prime and 2 has no divisor 1 < r < 2, so neither survey reaches solve
        for cap in (0, -1):
            for call in (lambda: admissible_group_orders(7, NSP, node_cap=cap),
                         lambda: admissible_group_orders(2, NSP, node_cap=cap),
                         lambda: scan(2, 1, NSP, node_cap=cap)):
                with pytest.raises(ValueError, match=f"node_cap must be positive, got {cap}"):
                    call()

    def test_recursion_limit_untouched(self):
        limit = sys.getrecursionlimit()
        assert solve(FeasibilityProblem(280, 7, NSP)).feasible
        assert sys.getrecursionlimit() == limit

    def test_depth_guard_refuses_before_the_limit_is_hit(self):
        # The search for a feasible NSP point at 39 levels nests about 30
        # frames; the interpreter may count a few more than the frame chain.
        p = FeasibilityProblem(280, 7, NSP)
        frame, here = sys._getframe(), 0
        while frame is not None:
            frame, here = frame.f_back, here + 1
        limit = sys.getrecursionlimit()
        outcomes = set()
        try:
            for extra in range(16, 80, 4):
                sys.setrecursionlimit(here + extra)
                try:
                    outcomes.add(solve(p).verdict)
                except BoundsError:
                    outcomes.add("refused")
        finally:
            sys.setrecursionlimit(limit)
        assert outcomes == {"refused", "feasible"}

    def test_recursion_limit_refusal_leaves_no_state(self):
        p = FeasibilityProblem(280, 7, NSP)
        fresh = solve(p).as_json_dict()
        assert fresh["verdict"] == "feasible"
        frame, here = sys._getframe(), 0
        while frame is not None:
            frame, here = frame.f_back, here + 1
        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(here + 24)
            with pytest.raises(BoundsError, match="recursion limit"):
                solve(p)
            assert sys.getrecursionlimit() == here + 24
        finally:
            sys.setrecursionlimit(limit)
        assert solve(p).as_json_dict() == fresh

    def test_auto_nsp_applied_when_coprime(self):
        cert = solve(FeasibilityProblem(42, 3, ModeFlags(auto_nsp=True)))
        assert cert.stats["regime"]["no_skew_primitives"]
        assert cert.stats["regime"]["auto_nsp_applied"]
        # 42/3 = 14, gcd(3,14)=1: same verdict as explicit nsp
        assert cert.feasible
        assert cert.witness == minimal_form(3, 2)

    def test_auto_nsp_not_applied_when_not_coprime(self):
        cert = solve(FeasibilityProblem(4, 2, ModeFlags(auto_nsp=True, non_cosemisimple=True)))
        assert not cert.stats["regime"]["no_skew_primitives"]
        assert cert.feasible  # the Sweedler-shaped table


class TestValueTypes:
    def test_feasibility_problem(self):
        p = FeasibilityProblem(10, 2)
        assert_value_type(p, {"target_dim": 10, "group_order": 2, "flags": ModeFlags()},
                          "FeasibilityProblem(target_dim=10, group_order=2, flags=ModeFlags("
                          "non_cosemisimple=False, no_skew_primitives=False, auto_nsp=False))")
        q = FeasibilityProblem(flags=NSP, group_order=2, target_dim=10)
        assert_value_type(q, {"target_dim": 10, "group_order": 2, "flags": NSP},
                          "FeasibilityProblem(target_dim=10, group_order=2, flags=ModeFlags("
                          "non_cosemisimple=True, no_skew_primitives=True, auto_nsp=False))")
        assert hash(q) == hash(FeasibilityProblem(10, 2, NSP))
        assert p != q and len({p, q, FeasibilityProblem(10, 2)}) == 2

    def test_feasible_certificate_round_trips_with_its_witness(self):
        cert = solve(FeasibilityProblem(42, 3, NSP))
        assert cert.feasible
        for twin in (pickle.loads(pickle.dumps(cert)), copy.copy(cert), copy.deepcopy(cert)):
            assert twin == cert
            assert twin.witness == cert.witness == minimal_form(3, 2)
            assert twin.witness.entries() == cert.witness.entries()
            assert twin.as_json_dict() == cert.as_json_dict()
            assert check(twin.witness, NSP) == []
        assert copy.deepcopy(cert).stats is not cert.stats

    @pytest.mark.parametrize("args", [(45.0, 3), (45, 3.0), (True, 1), (45, True), ("45", 3)])
    def test_problem_rejects_non_integer_fields(self, args):
        with pytest.raises(ValueError, match="must be an integer"):
            FeasibilityProblem(*args)

    @pytest.mark.parametrize(
        "call,args,message",
        [
            (lower_bound, (True,), "r must be an integer, got True"),
            (lower_bound, (2.0,), "r must be an integer, got 2.0"),
            (minimal_form, (2.0, 2), "r must be an integer, got 2.0"),
            (minimal_form, (2, 2.0), "d must be an integer, got 2.0"),
            (scan, (2, 2.5, NSP), "t_max must be an integer, got 2.5"),
            (scan, (2.0, 3, NSP), "r must be an integer, got 2.0"),
            (scan, (0, 3, NSP), "r must be positive"),
            (admissible_group_orders, (12.0, NSP), "N must be an integer, got 12.0"),
            (surveyed_group_orders, (12.0,), "N must be an integer, got 12.0"),
            (surveyed_group_orders, (0,), "N must be positive"),
            (surveyed_group_orders, (-12,), "N must be positive"),
            (FeasibilityProblem, (10.0, 2), "target_dim must be an integer, got 10.0"),
            (FeasibilityProblem, (10, 2.0), "group_order must be an integer, got 2.0"),
            (FeasibilityProblem, (10, 0), "group_order must be positive"),
            # node_cap, checked before any answer: (7, 2) and
            # admissible_group_orders(7, ...) answer without a search
            (functools.partial(solve, node_cap=True), (FeasibilityProblem(8, 2),),
             "node_cap must be an integer, got True"),
            (functools.partial(solve, node_cap=2.5), (FeasibilityProblem(8, 2),),
             "node_cap must be an integer, got 2.5"),
            (functools.partial(solve, node_cap=1.0), (FeasibilityProblem(7, 2),),
             "node_cap must be an integer, got 1.0"),
            (functools.partial(admissible_group_orders, node_cap="5"), (12, NSP),
             "node_cap must be an integer, got '5'"),
            (functools.partial(admissible_group_orders, node_cap=False), (7, NSP),
             "node_cap must be an integer, got False"),
            (functools.partial(scan, node_cap=2.5), (2, 1, NSP),
             "node_cap must be an integer, got 2.5"),
        ],
    )
    def test_functions_reject_non_integer_arguments_by_their_own_name(self, call, args, message):
        with pytest.raises(ValueError) as info:
            call(*args)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "args,message",
        [
            ((6, 2, "NSP"), "flags must be a ModeFlags, got 'NSP'"),
            ((6, 2, None), "flags must be a ModeFlags, got None"),
        ],
    )
    def test_problem_rejects_ill_typed_flags(self, args, message):
        with pytest.raises(ValueError) as info:
            FeasibilityProblem(*args)
        assert str(info.value) == message


class TestNodeCap:
    # Nodes are counted a whole exclude run at a time; the cap must still
    # admit a search of exactly cap nodes and refuse one node more.
    @pytest.mark.parametrize(
        "n,r,flags",
        [
            (14, 1, NON_COSEMISIMPLE),
            (20, 1, PLAIN),
            (24, 2, NSP),
            (40, 2, NON_COSEMISIMPLE),
            (45, 3, NSP),
            # closes by all eight reasons, 604,473 nodes
            (120, 3, NSP),
        ],
    )
    def test_cap_at_the_node_count_is_the_boundary(self, n, r, flags):
        p = FeasibilityProblem(n, r, flags)
        full = solve(p)
        nodes = full.stats["nodes"]
        assert nodes > 1
        assert solve(p, node_cap=nodes).as_json_dict() == full.as_json_dict()
        with pytest.raises(SearchCapExceeded):
            solve(p, node_cap=nodes - 1)


class TestClosedTable:
    # stats["closed"] holds each reason that closed a node, with its count,
    # keys sorted; a reason that closed nothing is left out
    @pytest.mark.parametrize(
        "n,r,flags,closed",
        [
            (45, 3, NSP, {"R11": 65, "R4": 30, "R5": 18, "R7": 14, "RNC": 5, "budget": 984,
                          "partition": 2}),
            (24, 2, NSP, {"R11": 19, "R4": 18, "R5": 6, "R7": 9, "RNC": 6, "budget": 197}),
            (30, 3, PLAIN, {"R11": 76, "R4": 9, "R5": 4, "budget": 238, "partition": 8}),
            (20, 1, PLAIN, {"R11": 315, "R4": 164, "R5": 70, "budget": 2388, "partition": 20}),
            (120, 3, NSP, {"R11": 20588, "R4": 18798, "R5": 6521, "R7": 310, "R8": 104,
                           "RNC": 26, "budget": 535428, "partition": 161}),
        ],
    )
    def test_pinned(self, n, r, flags, closed):
        got = solve(FeasibilityProblem(n, r, flags)).stats["closed"]
        assert got == closed
        assert list(got) == list(closed)

    @pytest.mark.parametrize("flags", [PLAIN, NON_COSEMISIMPLE, NSP])
    def test_shape_in_each_regime(self, flags):
        for r in (1, 2, 3, 5):
            for t in range(1, 13):
                closed = solve(FeasibilityProblem(t * r, r, flags)).stats["closed"]
                assert list(closed) == sorted(closed), (t, r)
                assert all(type(v) is int and v > 0 for v in closed.values()), (t, r, closed)
                assert set(closed) <= {"budget", "R11", "R4", "R5", "R7", "R8", "RNC", "partition"}
                if flags is not NSP:
                    assert not {"R7", "R8"} & set(closed), (t, r, closed)
                if flags is PLAIN:
                    assert "RNC" not in closed, (t, r, closed)


def test_repeated_solves_do_not_grow_the_heap():
    # Phase 2 runs once per complete support; building its cost tuple from a
    # generator filled the tuple free lists, about 6,000 blocks here.  A fresh
    # interpreter, so earlier tests' garbage and free lists do not count.
    code = (
        "import sys\n"
        "from blocksieve import NON_COSEMISIMPLE, FeasibilityProblem, solve\n"
        "p = FeasibilityProblem(40, 1, NON_COSEMISIMPLE)\n"
        "solve(p); solve(p)\n"
        "before = sys.getallocatedblocks()\n"
        "for _ in range(4):\n"
        "    solve(p)\n"
        "print(sys.getallocatedblocks() - before)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True).stdout
    assert int(out) < 2000


def least_multipliers(costs, budget):
    """Lexicographically least k >= 1 with sum k_i * costs[i] = budget, by trying k_1 upward."""
    if not costs:
        return () if budget == 0 else None
    for k in range(1, budget // costs[0] + 1):
        rest = least_multipliers(costs[1:], budget - k * costs[0])
        if rest is not None:
            return (k, *rest)
    return None


class TestMultipliers:
    def test_lexicographically_least_multipliers_by_brute_force(self):
        for size in range(4):
            for costs in itertools.product(range(1, 5), repeat=size):
                for budget in range(13):
                    ranges = [range(1, budget // c + 1) for c in costs]
                    expected = next(
                        (ks for ks in itertools.product(*ranges)
                         if sum(k * c for k, c in zip(ks, costs)) == budget),
                        None,
                    )
                    assert _multipliers(costs, budget) == expected, (costs, budget)

    def test_slack_above_every_cost(self):
        # every unit takes part in the reach bitsets
        for size in range(1, 5):
            for costs in itertools.product(range(1, 6), repeat=size):
                for extra in range(max(costs) + 1, max(costs) + 5):
                    budget = sum(costs) + extra
                    assert _multipliers(costs, budget) == least_multipliers(costs, budget), (
                        costs, budget)

    def test_r1_tower_shapes(self):
        # phase 2 at r = 1: many units over a few distinct costs
        rng = random.Random(27)
        for _ in range(2000):
            pool = rng.sample((1, 2, 3, 4, 9), rng.randint(1, 3))
            costs = tuple(rng.choice(pool) for _ in range(rng.randint(6, 10)))
            budget = rng.randint(0, sum(costs) + 12)
            assert _multipliers(costs, budget) == least_multipliers(costs, budget), (
                costs, budget)

    def test_recurring_cost_keeps_one_multiple(self):
        # its extra multiples could move to the later unit of the same cost
        for size in range(5):
            for costs in itertools.product(range(1, 5), repeat=size):
                for budget in range(13):
                    ks = _multipliers(costs, budget)
                    if ks is not None:
                        assert all(k == 1 for i, k in enumerate(ks)
                                   if costs[i] in costs[i + 1:]), (costs, budget)

    def test_phase_2_counts_in_units_of_r(self):
        # the solver's costs and budgets are multiples of r, so a bitset has
        # at most N/r bits; counted in units of 1 it had 2r bits at (3r, r)
        r = 100_000_007
        tracemalloc.start()
        try:
            cert = solve(FeasibilityProblem(3 * r, r))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.feasible
        assert peak < 1024 * 1024, peak

    def test_every_cost_above_the_slack(self):
        # no unit can take a second multiple: all ones at slack 0, else none
        assert _multipliers((), 0) == ()
        assert _multipliers((), 3) is None
        assert _multipliers((2,), 0) is None
        assert _multipliers((3, 1), 0) is None
        for size in range(1, 5):
            for costs in itertools.product(range(2, 7), repeat=size):
                for extra in range(-1, min(costs)):
                    budget = sum(costs) + extra
                    expected = (1,) * size if extra == 0 else None
                    assert least_multipliers(costs, budget) == expected
                    assert _multipliers(costs, budget) == expected, (costs, budget)


class TestPhase2Skip:
    @staticmethod
    def oracle_points():
        """Divisor pairs with N <= 24 within the oracle's step cap: r = 1 only to N = 12."""
        return [(n, r) for n in range(1, 25) for r in range(1, n + 1)
                if n % r == 0 and (r > 1 or n <= 12)]

    def test_case_bound_lies_below_every_system_of_its_case(self):
        for flags in (PLAIN, NON_COSEMISIMPLE, NSP):
            for n, r in self.oracle_points():
                systems = sorted(s.entries() for s in oracle_enumerate(n, r, flags))
                for entries in systems:
                    ds = [d for (level, d, _, _) in entries if level == 0 and d > 1]
                    bound = _case_bound(r, [(d, least_dim(r, d, d)) for d in ds])
                    level0 = tuple(e for e in entries if e[0] == 0)
                    assert level0 >= bound[:-1], (n, r, entries)
                    if len(level0) < len(entries):
                        assert entries > bound, (n, r, entries)
                    # so skipping a support whose bound exceeds the best
                    # witness so far never skips a better one, even a
                    # level-0-only system that sorts below its bound
                    below = bisect_left(systems, bound)
                    if below:
                        assert entries >= systems[below - 1], (n, r, entries)

    def test_memoized_feasibility_matches_multipliers(self):
        # the memoized verdict on the free costs read off the placement
        # stack, against phase 2's own answer on them
        rng = random.Random(28)
        for _ in range(300):
            r = rng.choice((1, 3))
            pool = rng.sample((1, 2, 3, 4, 6, 9), rng.randint(1, 3))
            costs = [rng.choice(pool) for _ in range(rng.randint(1, 8))]
            top = rng.choice((0, 2))
            fixed = 2 if top else 1
            budget = rng.randint(0, sum(costs) + 12)
            search = _Search((budget + fixed) * r, r, False, True, 2, 1, 1)
            # phase 2 reads a group's cost off the table by its index, so
            # groups 1, 2, ... take the drawn costs, in units of r
            search.units = [1, *costs]
            # the placement stack as the search leaves it: the grouplike
            # block, then the pinned top pointed block, then the free groups
            search.stack.append((0, 0))
            if top:
                search.pointed.append(len(search.stack))
                search.stack.append((top, 0))
            free = range(1, len(costs) + 1)
            for k in free:
                search.stack.append((1, k))
                expected = _multipliers(costs[:k], budget) is not None
                slack = budget - sum(costs[:k])
                assert search._feasible(top, slack) == expected, (r, costs[:k], top, budget)
            for k in range(len(free), 0, -1):
                expected = _multipliers(costs[:k], budget) is not None
                slack = budget - sum(costs[:k])
                assert search._feasible(top, slack) == expected, (r, costs[:k], top, budget)
                search.stack.pop()


class TestSolveProperties:
    def test_infeasible_below_lower_bound(self):
        for r in range(1, 8):
            n_min, _ = lower_bound(r)
            for n in range(r, n_min, r):
                assert not solve(FeasibilityProblem(n, r, NSP)).feasible, (n, r)

    def test_minimum_feasible_dimension_is_the_lower_bound(self):
        for r in range(1, 8):
            n_min, argmin = lower_bound(r)
            cert = solve(FeasibilityProblem(n_min, r, NSP))
            assert cert.feasible
            for d in argmin:
                assert check(minimal_form(r, d), NSP) == []
                assert total_dim(minimal_form(r, d)) == n_min

    def test_padding_monotonicity_spot_checks(self):
        # padding an existing diagonal coradical block by its own divisor
        # keeps every rule satisfied, so feasibility transfers upward
        for r, d, k in [(3, 2, 1), (3, 2, 4), (2, 2, 3), (5, 2, 2)]:
            base = lower_bound(r)[0]
            step = lcm(d * d, r)
            assert solve(FeasibilityProblem(base + k * step, r, NSP)).feasible

    def test_two_pointed_level_tower_at_34(self):
        # the least dimension at group order 2 whose table needs pointed
        # blocks at two different positive levels; the witness climbs to
        # level 4 through a second edge pair at level 3
        cert = solve(FeasibilityProblem(34, 2, NSP))
        assert cert.feasible
        assert cert.witness == BlockSystem(2, {
            (0, 1, 1): 2, (0, 2, 2): 4,
            (1, 1, 2): 4, (1, 2, 1): 4,
            (2, 1, 1): 2, (2, 2, 2): 4,
            (3, 1, 2): 4, (3, 2, 1): 4,
            (4, 1, 1): 2, (4, 2, 2): 4,
        })
        levels = {i.level for i in cert.witness.blocks if (i.d1, i.d2) == (1, 1) and i.level >= 1}
        assert levels == {2, 4}

    def test_padded_rule_passing_systems_bound_the_witness(self):
        # Pruning soundness past the oracle grid (N <= 60): each padded
        # minimal form or two-pointed-level tower passes the rules, so the
        # solver must find a witness and, returning the least one, a witness
        # no greater than it.
        rng = random.Random(3)
        cases = 0
        while cases < 30:
            r, d = rng.choice([(3, 2), (3, 3), (4, 2), (4, 3), (5, 2)])
            diag, edge = lcm(d * d, r), d * r
            blocks = {(n, a, b): v for (n, a, b, v) in minimal_form(r, d).entries()}
            if rng.random() < 0.5:
                # a second edge pair and a new top pointed block two levels up
                blocks.update({(3, 1, d): edge, (3, d, 1): edge, (4, 1, 1): r, (4, d, d): diag})
                blocks[(2, 1, 1)] += r * rng.randint(0, 2)
                blocks[(4, d, d)] += diag * rng.randint(0, 1)
            e = rng.choice([x for x in (2, 3, 4) if x != d])
            if rng.random() < 0.5:
                blocks[(0, e, e)] = lcm(e * e, r)
            for idx in [(0, d, d), (2, d, d)]:
                blocks[idx] += diag * rng.randint(0, 1)
            if rng.random() < 0.3:
                blocks[(1, d, d)] = diag
            pad = rng.randint(0, 1) * edge
            blocks[(1, d, 1)] += pad
            blocks[(1, 1, d)] += pad
            s = BlockSystem(r, blocks)
            n = total_dim(s)
            if not 60 < n <= 110:
                continue
            cases += 1
            assert check(s, NSP) == [], s
            cert = solve(FeasibilityProblem(n, r, NSP))
            assert cert.feasible, s
            assert cert.witness.entries() <= s.entries(), s


def _no_solve(*args, **kwargs):
    raise AssertionError("a point was solved")


def _recording_solve(monkeypatch):
    """Patch the solver's solve to record each problem it is given, in turn."""
    solved = []

    def record(p, **kwargs):
        solved.append((p.target_dim, p.group_order))
        return solve(p, **kwargs)

    monkeypatch.setattr("blocksieve.solver.solve", record)
    return solved


class TestScan:
    def test_corollary_list_for_group_order_two(self):
        rows = scan(2, 16, NSP)
        excluded = {t for (t, verdict, _) in rows if verdict == "infeasible"}
        assert excluded == {1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 15}
        for t, verdict, cert in rows:
            if verdict == "feasible":
                assert check(cert.witness, NSP) == []
                assert total_dim(cert.witness) == 2 * t

    def test_last_point_past_the_level_cap_refused_before_any_solve(self):
        # a scan building every problem first held about 96 bytes per point
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(BoundsError, match=f"exceeds the level cap {LEVEL_CAP}"):
                scan(3, 10**9, NSP)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.05, elapsed
        assert peak < 64 * 1024, peak

    def test_refused_before_any_solve(self, monkeypatch):
        monkeypatch.setattr("blocksieve.solver.solve", _no_solve)
        with pytest.raises(BoundsError):
            scan(3, 10**9, NSP)
        # a scan that the node cap would end is refused at its last point
        with pytest.raises(BoundsError):
            scan(7, 300, NSP)

    def test_points_solved_in_turn(self, monkeypatch):
        solved = _recording_solve(monkeypatch)
        rows = scan(3, 14, NSP)
        assert solved == [(3 * t, 3) for t in range(1, 15)]
        for t, verdict, cert in rows:
            assert verdict == solve(FeasibilityProblem(3 * t, 3, NSP)).verdict == cert.verdict

    def test_surveys_take_no_jobs(self):
        # each survey solves its points in the calling process
        with pytest.raises(TypeError, match="jobs"):
            scan(2, 2, NSP, jobs=2)
        with pytest.raises(TypeError, match="jobs"):
            admissible_group_orders(12, NSP, jobs=2)


class TestAdmissibleGroupOrders:
    def test_refused_before_any_solve(self, monkeypatch):
        # a survey is refused at its smallest group order, whose grid is deepest
        monkeypatch.setattr("blocksieve.solver.solve", _no_solve)
        with pytest.raises(BoundsError):
            admissible_group_orders(10**12, NSP)

    def test_refused_at_the_least_divisor_without_listing_the_rest(self, monkeypatch):
        # 10^16 has 289 divisors, found by a loop to 10^8; its least, 2, decides
        monkeypatch.setattr("blocksieve.solver.solve", _no_solve)
        monkeypatch.setattr("blocksieve.solver.surveyed_group_orders", _no_solve)
        start = time.process_time()
        with pytest.raises(BoundsError, match="level cap"):
            admissible_group_orders(10**16, NSP)
        assert time.process_time() - start < 1

    def test_each_order_solved_in_turn(self, monkeypatch):
        solved = _recording_solve(monkeypatch)
        feasible = admissible_group_orders(42, NSP)
        assert solved == [(42, r) for r in surveyed_group_orders(42)]
        assert feasible == {
            r for r in surveyed_group_orders(42) if solve(FeasibilityProblem(42, r, NSP)).feasible
        }

    def test_surveyed_orders_are_the_proper_divisors(self):
        for n in range(1, 2001):
            assert surveyed_group_orders(n) == [r for r in range(2, n) if n % r == 0], n

    def test_surveyed_orders_of_a_large_prime_in_square_root_time(self):
        start = time.process_time()
        assert surveyed_group_orders(10**12 + 39) == []
        assert time.process_time() - start < 1

    def test_dimension_30_empty(self):
        assert admissible_group_orders(30, NSP) == set()

    def test_dimension_42_contains_3(self):
        assert 3 in admissible_group_orders(42, NSP)

    def test_dimension_4_skew_allowed_contains_2(self):
        assert 2 in admissible_group_orders(4, NON_COSEMISIMPLE)

import itertools
import math
import os
import random
import subprocess
import sys
import time
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
from blocksieve.rules import check
from blocksieve.solver import (
    BoundsError,
    FeasibilityProblem,
    GridBounds,
    SearchCapExceeded,
    _multipliers,
    admissible_group_orders,
    basic_block_dim,
    lower_bound,
    minimal_form,
    scan,
    solve,
)


SRC = str(Path(__file__).resolve().parent.parent / "src")


def lcm(a, b):
    return a * b // math.gcd(a, b)


class TestBasicBlockDim:
    @pytest.mark.parametrize(
        "r,d1,d2,expected",
        [
            (3, 1, 1, 3),
            (3, 2, 1, 12),
            (3, 1, 2, 12),
            (3, 2, 2, 12),
            (2, 3, 3, 18),
            (5, 2, 2, 20),
            (6, 2, 3, 6),
        ],
    )
    def test_table(self, r, d1, d2, expected):
        assert basic_block_dim(r, d1, d2) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            basic_block_dim(0, 1, 1)


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


class TestGridBounds:
    def test_defaults(self):
        b = GridBounds.defaults(42, 3)
        assert b.max_level == 13
        # largest d with lcm(d*d, 3) <= 39 is 6 (lcm(36,3) = 36); the budget
        # prune removes the infeasible intermediate sizes 4 and 5 on its own
        assert b.max_d == 6

    def test_level_cap_guard(self):
        with pytest.raises(BoundsError):
            GridBounds.defaults(10_000, 1)

    def test_group_cap_refuses_wide_grid_before_building_it(self):
        # max_d = 600 means 180,300 branching units per level; building them
        # took about a second and 95 MB before the first node.
        start = time.perf_counter()
        with pytest.raises(BoundsError, match="group cap"):
            solve(FeasibilityProblem(40, 4, bounds=GridBounds(2, 600)), node_cap=10)
        assert time.perf_counter() - start < 0.2

    def test_group_cap_boundary(self):
        # 99 * 100 / 2 = 4950 units fit under GROUP_CAP, 100 * 101 / 2 do not
        with pytest.raises(SearchCapExceeded):
            solve(FeasibilityProblem(40, 4, bounds=GridBounds(2, 99)), node_cap=10)
        with pytest.raises(BoundsError, match="max_d <= 99"):
            solve(FeasibilityProblem(40, 4, bounds=GridBounds(2, 100)), node_cap=10)
        # a single level builds no units, so any max_d is searched
        assert solve(FeasibilityProblem(40, 4, bounds=GridBounds(0, 600))).feasible


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

    def test_recursion_limit_untouched(self):
        limit = sys.getrecursionlimit()
        assert solve(FeasibilityProblem(280, 7, NSP)).feasible
        assert sys.getrecursionlimit() == limit

    def test_shallow_grid_with_large_quotient_is_searched(self):
        # N/r = 1000 exceeds the default limit, but a grid of 2 levels and
        # d <= 2 places at most 7 blocks, so the search is shallow.
        cert = solve(FeasibilityProblem(1000, 1, bounds=GridBounds(2, 2)))
        assert cert.feasible
        assert total_dim(cert.witness) == 1000

    def test_depth_guard_refuses_before_the_limit_is_hit(self):
        # A chain of 99 levels of B(n,1,1) nests about 200 search frames.
        p = FeasibilityProblem(200, 2, NON_COSEMISIMPLE, bounds=GridBounds(99, 1))
        frame, here = sys._getframe(), 0
        while frame is not None:
            frame, here = frame.f_back, here + 1
        limit = sys.getrecursionlimit()
        outcomes = set()
        try:
            for extra in range(180, 240, 4):
                sys.setrecursionlimit(here + extra)
                try:
                    outcomes.add(solve(p).verdict)
                except BoundsError:
                    outcomes.add("refused")
        finally:
            sys.setrecursionlimit(limit)
        assert outcomes == {"refused", "feasible"}

    def test_recursion_limit_refusal_leaves_no_state(self):
        p = FeasibilityProblem(200, 2, NON_COSEMISIMPLE, bounds=GridBounds(99, 1))
        fresh = solve(p).as_json_dict()
        assert fresh["verdict"] == "feasible"
        frame, here = sys._getframe(), 0
        while frame is not None:
            frame, here = frame.f_back, here + 1
        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(here + 60)
            with pytest.raises(BoundsError, match="recursion limit"):
                solve(p)
            assert sys.getrecursionlimit() == here + 60
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

    def test_explicit_bounds_are_respected(self):
        cert = solve(FeasibilityProblem(4, 2, NON_COSEMISIMPLE, GridBounds(1, 1)))
        assert cert.feasible
        assert cert.stats["bounds"] == {"max_level": 1, "max_d": 1}


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


class TestScan:
    def test_corollary_list_for_group_order_two(self):
        rows = scan(2, 16, NSP)
        excluded = {t for (t, verdict, _) in rows if verdict == "infeasible"}
        assert excluded == {1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 15}
        for t, verdict, cert in rows:
            if verdict == "feasible":
                assert check(cert.witness, NSP) == []
                assert total_dim(cert.witness) == 2 * t

    def test_nonpositive_jobs_refused(self):
        for jobs in (0, -2):
            with pytest.raises(ValueError, match="jobs must be positive"):
                scan(2, 3, NSP, jobs=jobs)
            with pytest.raises(ValueError, match="jobs must be positive"):
                admissible_group_orders(12, NSP, jobs=jobs)


class TestAdmissibleGroupOrders:
    def test_dimension_30_empty(self):
        assert admissible_group_orders(30, NSP) == set()

    def test_dimension_42_contains_3(self):
        assert 3 in admissible_group_orders(42, NSP)

    def test_dimension_4_skew_allowed_contains_2(self):
        assert 2 in admissible_group_orders(4, NON_COSEMISIMPLE)

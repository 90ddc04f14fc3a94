import math
import random
import re
import time
import tracemalloc

import pytest

from blocksieve.blocks import (
    MAX_BLOCK_LEVEL,
    NON_COSEMISIMPLE,
    NSP,
    PLAIN,
    BlockIndex,
    BlockSystem,
    total_dim,
    transpose,
)
from blocksieve.rules import (
    RULE_NAMES,
    RULE_ORDER,
    RuleViolation,
    Support,
    backed,
    chain_gap,
    check,
    escalate,
    explain,
    has_nsp_core,
    least_dim,
    nsp_forcing_ok,
    stranded,
)
from blocksieve.oracle import _divisor
from blocksieve.solver import minimal_form

from conftest import assert_value_type, random_system

ALL_FLAGS = (PLAIN, NON_COSEMISIMPLE, NSP)


def rules_of(violations):
    return sorted({v.rule for v in violations})


class TestSpecExamples:
    def test_minimal_form_passes_nsp(self):
        assert check(minimal_form(3, 2), NSP) == []

    def test_broken_symmetry_and_escalation(self):
        s = BlockSystem(3, {(0, 1, 1): 3, (0, 2, 2): 12, (1, 2, 1): 6})
        assert rules_of(check(s, NSP)) == ["R3", "R5", "R7"]

    def test_sweedler_under_nsp_flags(self):
        s = BlockSystem(2, {(0, 1, 1): 2, (1, 1, 1): 2})
        violations = check(s, NSP)
        assert rules_of(violations) == ["R7"]
        assert any("(1,1,1) must be absent" in v.message for v in violations)

    def test_sweedler_with_skew_primitives_allowed(self):
        s = BlockSystem(2, {(0, 1, 1): 2, (1, 1, 1): 2})
        assert check(s, NON_COSEMISIMPLE) == []


class TestRuleViolation:
    def test_value_type(self):
        v = RuleViolation(rule="R1", indices=(BlockIndex(1, 1, 1),), message="m")
        assert_value_type(v, {"rule": "R1", "indices": (BlockIndex(1, 1, 1),), "message": "m",
                              "missing_witness": None},
                          "RuleViolation(rule='R1', indices=(BlockIndex(level=1, d1=1, d2=1),), "
                          "message='m', missing_witness=None)")
        assert hash(v) == hash(RuleViolation("R1", (BlockIndex(1, 1, 1),), "m", None))
        assert v != RuleViolation("R1", (BlockIndex(1, 1, 1),), "m", "w")
        assert len({v, RuleViolation("R1", (BlockIndex(1, 1, 1),), "m")}) == 1


class TestExplainFormat:
    def test_r3_exact_line(self):
        s = BlockSystem(3, {(0, 1, 1): 3, (0, 2, 2): 12, (1, 2, 1): 6, (2, 2, 2): 12})
        v = [w for w in check(s, PLAIN) if w.rule == "R3"][0]
        assert explain(v) == "R3 antipode symmetry: dim B(1,2,1)=6 but dim B(1,1,2)=0"

    def test_r6_mentions_group_order_equation(self):
        s = BlockSystem(2, {(0, 1, 1): 2, (1, 1, 1): 4})
        v = [w for w in check(s, PLAIN) if w.rule == "R6"][0]
        assert "= |G(H)|" in v.message

    def test_r4_names_missing_witness(self):
        s = BlockSystem(1, {
            (0, 1, 1): 1, (0, 2, 2): 4,
            (1, 2, 1): 2, (1, 1, 2): 2,
            (2, 1, 1): 1,
            (3, 2, 2): 4,
        })
        v = [w for w in check(s, PLAIN) if w.rule == "R4" and w.indices[0] == BlockIndex(3, 2, 2)][0]
        assert v.missing_witness is not None and "b" in v.missing_witness
        assert "B(1,2,b)" in v.missing_witness or "B(2,b,2)" in v.missing_witness


class TestIndividualRules:
    def test_r0_detects_group_order_mismatch(self):
        s = BlockSystem(3, {(0, 1, 1): 5})
        assert "R0" in rules_of(check(s, PLAIN))

    def test_r0_level0_multiple_of_d_squared(self):
        s = BlockSystem(1, {(0, 1, 1): 1, (0, 2, 2): 6})
        assert "R0" in rules_of(check(s, PLAIN))

    def test_r0_level0_message(self):
        s = BlockSystem(3, {(0, 2, 2): 6})
        assert [v.message for v in check(s, PLAIN) if v.rule == "R0"] == [
            "dim B(0,2,2)=6 is not a positive multiple of 4"
        ]

    def test_r1_group_divisibility(self):
        s = BlockSystem(3, {(0, 1, 1): 3, (1, 1, 1): 4, (2, 1, 1): 3})
        assert "R1" in rules_of(check(s, PLAIN))

    def test_r2_edge_divisibility(self):
        # entry 2 at (1,2,1) is a multiple of r=2 and of d1*d2=2, but not of d*r=4
        s = BlockSystem(2, {(0, 1, 1): 2, (0, 2, 2): 4, (1, 2, 1): 2, (1, 1, 2): 2, (2, 1, 1): 2})
        assert any(v.rule == "R2" for v in check(s, PLAIN))

    def test_r4_chain_condition(self):
        contiguous_pointed = BlockSystem(
            1, {(0, 1, 1): 1, (1, 1, 1): 1, (2, 1, 1): 1, (3, 1, 1): 1}
        )
        assert check(contiguous_pointed, PLAIN) == []
        # (3,1,1) has no split 1+2: (1,1,2) exists but (2,2,1) does not
        broken = BlockSystem(1, {
            (0, 1, 1): 1, (0, 2, 2): 4,
            (1, 2, 1): 2, (1, 1, 2): 2,
            (2, 2, 2): 4,
            (3, 1, 1): 1,
        })
        assert any(
            v.rule == "R4" and v.indices[0] == BlockIndex(3, 1, 1)
            for v in check(broken, PLAIN)
        )
        # routing through b = 2 satisfies the chain rule
        routed = BlockSystem(1, {
            (0, 1, 1): 1, (0, 2, 2): 4,
            (1, 2, 1): 2, (1, 1, 2): 2,
            (2, 2, 2): 4, (2, 1, 1): 1,
        })
        assert all(v.rule != "R4" for v in check(routed, PLAIN))

    def test_r6_pins_top_pointed_block(self):
        s = BlockSystem(2, {(0, 1, 1): 2, (1, 1, 1): 4})
        assert "R6" in rules_of(check(s, PLAIN))
        ok = BlockSystem(2, {(0, 1, 1): 2, (1, 1, 1): 2})
        assert "R6" not in rules_of(check(ok, PLAIN))

    def test_r8_intermediate_pointed_level_needs_backing(self):
        base = minimal_form(2, 2).blocks
        bad = dict(base)
        bad[BlockIndex(3, 1, 1)] = 2          # new top pointed block
        bad[BlockIndex(2, 2, 1)] = 4          # chain witnesses for it
        bad[BlockIndex(2, 1, 2)] = 4
        s = BlockSystem(2, bad)
        assert "R8" in rules_of(check(s, NSP))

    def test_r7_cost_follows_occupied_cells(self):
        s = BlockSystem(1, {(0, 10**8, 10**8): 10**16})
        start = time.perf_counter()
        violations = check(s, NSP)
        assert time.perf_counter() - start < 1.0
        assert "R7" in rules_of(violations)

    def test_r9_level_contiguity(self):
        s = BlockSystem(1, {(0, 1, 1): 1, (2, 1, 1): 1})
        assert "R9" in rules_of(check(s, PLAIN))

    def test_r11_support_at_zero(self):
        s = BlockSystem(1, {(0, 1, 1): 1, (1, 2, 2): 4})
        assert "R11" in rules_of(check(s, PLAIN))

    def test_r12_bicomodule_divisibility(self):
        s = BlockSystem(1, {(0, 1, 1): 1, (0, 2, 2): 4, (1, 2, 2): 2})
        assert "R12" in rules_of(check(s, PLAIN))

    def test_rnc_only_with_flag(self):
        s = BlockSystem(3, {(0, 1, 1): 3})
        assert check(s, PLAIN) == []
        assert rules_of(check(s, NON_COSEMISIMPLE)) == ["RNC"]

    @pytest.mark.parametrize("args, message", [
        ((minimal_form(3, 2), None), "flags must be a ModeFlags, got None"),
        ((minimal_form(3, 2), "NSP"), "flags must be a ModeFlags, got 'NSP'"),
        (({"r": 3}, NSP), "s must be a BlockSystem, got {'r': 3}"),
        ((None, PLAIN), "s must be a BlockSystem, got None"),
    ])
    def test_ill_typed_arguments_are_refused(self, args, message):
        with pytest.raises(ValueError) as info:
            check(*args)
        assert str(info.value) == message

    def test_group_order_zero_flagged(self):
        s = BlockSystem(0, {(0, 2, 2): 4})
        assert "R0" in rules_of(check(s, PLAIN))


class TestLeastDim:
    @pytest.mark.parametrize(
        "r,d1,d2,expected",
        [
            (3, 1, 1, 3),
            (3, 2, 1, 6),
            (3, 1, 2, 6),
            (3, 2, 2, 12),
            (2, 3, 3, 18),
            (5, 2, 2, 20),
            (6, 2, 3, 6),
        ],
    )
    def test_table(self, r, d1, d2, expected):
        assert least_dim(r, d1, d2) == expected

    @pytest.mark.parametrize("args, message", [
        ((0, 1, 1), "r, d1, d2 must be positive"),
        ((2, 1, 0), "r, d1, d2 must be positive"),
        ((2, 1.5, 1), "d1 must be an integer, got 1.5"),
        ((2.0, 1, 1), "r must be an integer, got 2.0"),
    ])
    def test_refusals(self, args, message):
        with pytest.raises(ValueError) as info:
            least_dim(*args)
        assert str(info.value) == message

    def test_matches_the_oracle_divisor_at_every_level(self):
        # the oracle states the divisors on its own; level 0 holds diagonal blocks only
        for r in range(1, 13):
            for d1 in range(1, 13):
                assert least_dim(r, d1, d1) == _divisor((0, d1, d1), r)
                for d2 in range(1, 13):
                    for n in (1, 2):
                        assert least_dim(r, d1, d2) == _divisor((n, d1, d2), r)


class TestRuleSetProperties:
    def test_transpose_invariance_of_verdict(self):
        rng = random.Random(3)
        for _ in range(120):
            s = random_system(rng)
            for flags in ALL_FLAGS:
                assert (check(s, flags) == []) == (check(transpose(s), flags) == [])

    def test_rescaling_is_scale_compatible(self):
        # multiplying level >= 1 entries by a multiple of lcm(all d1*d2, r)
        # never breaks a passing divisibility or symmetry rule, and leaves
        # the support (hence every existential rule) untouched
        divisibility = {"R0", "R1", "R2", "R3", "R11", "R12"}
        existential = {"R4", "R5", "R7", "R8", "R9", "RNC"}
        rng = random.Random(4)
        for _ in range(80):
            s = random_system(rng, symmetric=True)
            ds = [i.d1 * i.d2 for i in s.blocks if i.level >= 1] or [1]
            factor = max(s.group_order, 1)
            for d in ds:
                factor = factor * d // math.gcd(factor, d)
            factor *= rng.randint(1, 3)
            scaled = BlockSystem(
                s.group_order,
                {i: (v * factor if i.level >= 1 else v) for i, v in s.blocks.items()},
            )
            for flags in ALL_FLAGS:
                before = {v.rule for v in check(s, flags)}
                after = {v.rule for v in check(scaled, flags)}
                assert after & divisibility <= before & divisibility
                assert before & existential == after & existential

    def test_r1_passing_systems_have_level_cost(self):
        rng = random.Random(9)
        tried = 0
        for _ in range(400):
            s = random_system(rng)
            report = check(s, PLAIN)
            if any(v.rule in ("R1", "R9", "R0") for v in report):
                continue
            tried += 1
            n_max = max((i.level for i in s.blocks), default=0)
            assert total_dim(s) >= (n_max + 1) * s.group_order
        assert tried > 5

    def test_nsp_passing_systems_contain_six_necessary_blocks(self):
        for r, d in [(1, 2), (2, 2), (3, 3), (4, 2), (5, 2)]:
            s = minimal_form(r, d)
            assert check(s, NSP) == []
            eff = dict(s.blocks)
            assert BlockIndex(0, 1, 1) in eff
            assert BlockIndex(0, d, d) in eff
            assert BlockIndex(1, d, 1) in eff
            assert BlockIndex(1, 1, d) in eff
            assert any(i.level > 1 and (i.d1, i.d2) == (1, 1) for i in eff)
            assert any(i.level > 1 and (i.d1, i.d2) == (d, d) for i in eff)

    def test_violations_sorted_by_rule_order(self):
        rng = random.Random(17)
        order = {rid: k for k, rid in enumerate(RULE_ORDER)}
        for _ in range(60):
            s = random_system(rng)
            report = check(s, NSP)
            ranks = [order[v.rule] for v in report]
            assert ranks == sorted(ranks)

    def test_every_rule_has_name_and_anchor(self):
        from blocksieve.rules import RULE_ANCHORS

        for rid in RULE_ORDER:
            assert rid in RULE_NAMES
            assert rid in RULE_ANCHORS


def _fmt(idx) -> str:
    return f"B({idx.level},{idx.d1},{idx.d2})"


def chain_gap_splits(occupied, n: int, d1: int, d2: int, start: int = 1) -> list[int]:
    """R4 read off its statement: the splits n = i + (n - i), start <= i < n,
    with no b such that (i, d1, b) and (n - i, b, d2) are both occupied.

    occupied holds (level, d1, d2) triples; every b in use is tried.
    """
    dims = {d for (_, a, b) in occupied for d in (a, b)}
    return [
        i for i in range(start, n)
        if not any((i, d1, b) in occupied and (n - i, b, d2) in occupied for b in dims)
    ]


def per_rule_reference(s: BlockSystem) -> list[RuleViolation]:
    """R1, R2, R3, R4, R11 and R12 as separate loops, each over its own sort of the table.

    The loops are the ones check ran before it read the sorted table once,
    except R4's and R11's, which are read off the rules' statements and share
    no code with check; the differential test below holds the one-pass check
    to them.
    """
    r = s.group_order
    eff = dict(s.blocks)
    if BlockIndex(0, 1, 1) not in eff and r > 0:
        eff[BlockIndex(0, 1, 1)] = r
    out = []

    def violate(rule, indices, message, missing=None):
        out.append(RuleViolation(rule, tuple(indices), message, missing))

    if r >= 1:
        for idx, v in sorted(eff.items()):
            if v % r != 0:
                violate("R1", [idx], f"dim {_fmt(idx)}={v} is not a multiple of |G(H)|={r}")
    if r >= 1:
        for idx, v in sorted(eff.items()):
            if idx.level >= 1 and min(idx.d1, idx.d2) == 1:
                d = max(idx.d1, idx.d2)
                if v % (d * r) != 0:
                    violate("R2", [idx],
                            f"dim {_fmt(idx)}={v} is not a multiple of {d}*|G(H)|={d * r}")
    seen_pairs = set()
    for idx in sorted(eff):
        if idx.level >= 1 and idx.d1 != idx.d2:
            key = (idx.level, min(idx.d1, idx.d2), max(idx.d1, idx.d2))
            if key in seen_pairs:
                continue
            seen_pairs.add(key)
            mirror = BlockIndex(idx.level, idx.d2, idx.d1)
            v, w = eff.get(idx, 0), eff.get(mirror, 0)
            if v != w:
                big, small = (idx, mirror) if v > w else (mirror, idx)
                violate("R3", [big, small],
                        f"dim {_fmt(big)}={max(v, w)} but dim {_fmt(small)}={min(v, w)}")
    occupied = {tuple(idx) for idx in eff}
    for idx in sorted(eff):
        n, d1, d2 = idx
        for i in chain_gap_splits(occupied, n, d1, d2):
            violate("R4", [idx],
                    f"dim {_fmt(idx)}={eff[idx]} has no chain witness at split {i}+{n - i}",
                    missing=f"no b with B({i},{d1},b) and B({n - i},b,{d2}) nonzero")
    used = sorted({d for idx in eff if idx.level >= 1 for d in (idx.d1, idx.d2)})
    for d in used:
        if BlockIndex(0, d, d) not in eff:
            witnesses = sorted(idx for idx in eff if idx.level >= 1 and d in (idx.d1, idx.d2))
            violate("R11", witnesses[:1],
                    f"{_fmt(witnesses[0])} uses d={d} with no coradical block B(0,{d},{d})")
    for idx, v in sorted(eff.items()):
        if idx.level >= 1 and v % (idx.d1 * idx.d2) != 0:
            violate("R12", [idx],
                    f"dim {_fmt(idx)}={v} is not a multiple of d1*d2={idx.d1 * idx.d2}")
    return out


class TestOnePassCheck:
    def test_matches_the_per_rule_loops_on_random_tables(self):
        # r = 0, stored (0,1,1) entries that disagree with r, lone mirrors
        # and divisible and indivisible values all occur
        rng = random.Random(22)
        ruled = {"R1", "R2", "R3", "R4", "R11", "R12"}
        seen = set()
        for _ in range(1000):
            r = rng.randint(0, 4)
            blocks = {}
            if rng.random() < 0.7:
                blocks[(0, 1, 1)] = r if r and rng.random() < 0.7 else rng.randint(1, 6)
            for _ in range(rng.randint(0, 10)):
                n, d1 = rng.randint(0, 4), rng.randint(1, 4)
                d2 = d1 if n == 0 else rng.randint(1, 4)
                v = rng.choice((max(r, 1) * d1 * d2 * rng.randint(1, 3), rng.randint(1, 24)))
                blocks[(n, d1, d2)] = v
                if n and rng.random() < 0.5:
                    blocks[(n, d2, d1)] = v if rng.random() < 0.8 else rng.randint(1, 24)
            s = BlockSystem(r, blocks)
            expected = per_rule_reference(s)
            seen.update(v.rule for v in expected)
            for flags in ALL_FLAGS:
                assert [v for v in check(s, flags) if v.rule in ruled] == expected
        assert seen == ruled

    def test_r11_at_scale_matches_the_per_rule_loops(self):
        # 2,000 level-1 diagonal blocks over d = 2..2001, every tenth d backed;
        # the unbacked d = 5 mod 50 also have an edge pair, which sorts first
        # and so is the block R11 names, and every seventh diagonal block
        # breaks R12
        blocks = {(1, d, d): d if d % 7 == 0 else d * d for d in range(2, 2002)}
        blocks.update({(0, d, d): d * d for d in range(10, 2002, 10)})
        blocks.update({(1, a, b): d for d in range(5, 2002, 50) for a, b in ((d, 1), (1, d))})
        s = BlockSystem(1, blocks)
        expected = per_rule_reference(s)
        assert {v.rule for v in expected} == {"R11", "R12"}
        named = [v.indices[0] for v in expected if v.rule == "R11"]
        assert len(named) == 2000 - 200
        assert BlockIndex(1, 1, 55) in named and BlockIndex(1, 3, 3) in named
        ruled = {"R1", "R2", "R3", "R4", "R11", "R12"}
        assert [v for v in check(s, PLAIN) if v.rule in ruled] == expected


class TestLevelBound:
    def test_level_above_the_bound_refused_before_any_violation(self):
        # two violations per missing level (R4 and R9) would be built otherwise;
        # the table is refused where it is built, so check never sees it
        with pytest.raises(ValueError, match=rf"MAX_BLOCK_LEVEL = {MAX_BLOCK_LEVEL}, "
                                             rf"got {MAX_BLOCK_LEVEL + 1}$"):
            BlockSystem(1, {(MAX_BLOCK_LEVEL + 1, 1, 1): 1})

    def test_tower_at_the_bound_still_checks(self):
        violations = check(BlockSystem(1, {(MAX_BLOCK_LEVEL, 1, 1): 1}), PLAIN)
        counts = {rule: sum(v.rule == rule for v in violations) for rule in ("R4", "R9")}
        assert counts == {"R4": MAX_BLOCK_LEVEL - 1, "R9": MAX_BLOCK_LEVEL - 1}
        assert len(violations) == 2 * (MAX_BLOCK_LEVEL - 1)


def tables(cells, levels: int = 7, width: int = 3) -> tuple[Support, Support]:
    """The Support of cells, (level, d1, d2) triples with every d <= width, in both shapes:
    lists over the keys 0..width, as the solver keeps it, and dicts, as check builds it."""
    return Support(levels, width, cells), Support(levels, cells=cells)


class TestChainGap:
    def test_first_gap_and_reported_gaps_match_every_split(self):
        # levels 0..5 so that n <= 1 (no split) and start past n both occur
        rng = random.Random(24)
        seen_gap_after_start = False
        for _ in range(600):
            cells = {(rng.randint(0, 5), rng.randint(1, 3), rng.randint(1, 3))
                     for _ in range(rng.randint(0, 14))}
            n, d1, d2 = rng.randint(0, 6), rng.randint(1, 3), rng.randint(1, 3)
            for start in range(1, 7):
                gaps = chain_gap_splits(cells, n, d1, d2, start)
                for t in tables(cells):
                    assert chain_gap(t, n, d1, d2, start) == (gaps[0] if gaps else 0)
                seen_gap_after_start |= start > 1 and bool(gaps)
            # check reports every gap of every positive-level block, in split order
            s = BlockSystem(1, {c: 1 for c in cells if c[0] >= 1 or c[1] == c[2]})
            reported = [
                (v.indices[0], int(re.search(r"split (\d+)\+", v.message).group(1)))
                for v in check(s, PLAIN) if v.rule == "R4"
            ]
            occupied = {tuple(idx) for idx in s.blocks} | {(0, 1, 1)}
            assert reported == [
                (idx, i) for idx in sorted(s.blocks)
                for i in chain_gap_splits(occupied, *idx)
            ]
        assert seen_gap_after_start


def support_levels(s: BlockSystem) -> dict[int, set[tuple[int, int]]]:
    """The occupied (d1, d2) cells of each level."""
    levels: dict[int, set[tuple[int, int]]] = {}
    for i in s.blocks:
        levels.setdefault(i.level, set()).add((i.d1, i.d2))
    return levels


def table_of(levels, width: int | None = None) -> Support:
    """The Support of levels, a map from each level to its cells, over levels 0..top."""
    cells = [(n, a, b) for n, held in levels.items() for (a, b) in held]
    return Support(max(levels, default=0) + 1, width, cells)


def fold(levels, top: int) -> set[int]:
    """The open rows once escalate has laid levels 1..top in turn, as the solver carries it up its search."""
    t = table_of(levels)
    open_rows = 0
    for n in range(1, top + 1):
        open_rows = escalate(t, open_rows, n)
    return {a for a in range(open_rows.bit_length()) if open_rows >> a & 1}


def escalates_nowhere(levels) -> set[tuple[int, int, int]]:
    """R5 read off its statement: off-diagonal cells at n >= 1 whose row is empty above n."""
    return {
        (n, a, b)
        for n, cells in levels.items() if n >= 1
        for (a, b) in cells
        if a != b and not any(m > n and any(x == a for (x, _y) in row) for m, row in levels.items())
    }


class TestEscalationFold:
    def test_fold_leaves_the_stranded_cells_on_random_tables(self):
        rng = random.Random(21)
        for _ in range(300):
            levels = support_levels(random_system(rng, symmetric=rng.random() < 0.5))
            top = max(levels, default=0)
            expected = escalates_nowhere(levels)
            assert fold(levels, top) == {a for (_n, a, _b) in expected}
            for width in (None, 3):
                got = stranded(table_of(levels, width))
                assert set(got) == expected
                assert len(got) == len(expected)

    def test_empty_level_keeps_the_open_cells(self):
        levels = {0: {(1, 1), (2, 2)}, 1: {(2, 1)}, 2: set()}
        assert fold(levels, 1) == fold(levels, 2) == {2}
        assert set(stranded(table_of(levels))) == {(1, 2, 1)}

    def test_diagonal_only_level_continues_its_rows_and_opens_none(self):
        levels = {0: {(1, 1), (2, 2), (3, 3)}, 1: {(2, 1), (3, 1)}, 2: {(2, 2), (1, 1)}}
        assert fold(levels, 1) == {2, 3}
        assert fold(levels, 2) == {3}
        assert set(stranded(table_of(levels))) == {(1, 3, 1)}

    def test_mirror_pair_needs_both_rows_continued(self):
        levels = {0: {(1, 1), (2, 2)}, 1: {(1, 2), (2, 1)}, 2: {(1, 1)}}
        assert fold(levels, 1) == {1, 2}
        assert fold(levels, 2) == {2}
        levels[3] = {(2, 2)}
        assert fold(levels, 3) == set()
        assert stranded(table_of(levels)) == []

    def test_fold_step_matches_its_statement(self):
        # a row stays open when level n leaves it empty, and opens when
        # level n holds an off-diagonal cell of it
        rng = random.Random(26)
        for _ in range(300):
            cells = {(1, rng.randint(1, 5), rng.randint(1, 5)) for _ in range(rng.randint(0, 8))}
            open_rows = rng.getrandbits(6) & ~1
            expected = {a for a in range(1, 6)
                        if open_rows >> a & 1 and not any(x == a for (_, x, _) in cells)}
            expected |= {a for (_, a, b) in cells if a != b}
            for t in tables(cells, 2, 5):
                after = escalate(t, open_rows, 1)
                assert {a for a in range(6) if after >> a & 1} == expected


def nsp_core_reference(cells) -> bool:
    """R7's core read off its statement: some d > 1 with (1,d,1), (1,1,d) and some (k,d,d), k > 1."""
    return any(
        (1, d, 1) in cells and (1, 1, d) in cells and any((k, d, d) in cells for (k, _, _) in cells if k > 1)
        for (_, d, _) in cells if d > 1
    )


def nsp_forcing_reference(cells, l, m) -> bool:
    """R8 read off its statement, for least and greatest positive pointed levels l and m."""
    if l is None or l >= m:
        return True
    if l == 1:
        return False
    for lp in {k for (k, _, _) in cells if k > l}:
        below = {(x, y) for (k, x, y) in cells if k == lp - 1}
        left = any(k == lp and b == 1 < a and any(x == a and y > 1 for (x, y) in below)
                   for (k, a, b) in cells)
        right = any(k == lp and a == 1 < b and any(y == b and x > 1 for (x, y) in below)
                    for (k, a, b) in cells)
        if left and right:
            return True
    return False


class TestSupportPredicates:
    """R7, R8 and R11 on the support table, in both of its shapes, against their statements."""

    def test_nsp_rules_and_backing_on_random_tables(self):
        rng = random.Random(25)
        seen = set()
        for _ in range(2000):
            p = rng.uniform(0.15, 0.6)
            grid = [(0, d, d) for d in (1, 2, 3)]
            grid += [(n, a, b) for n in range(1, 5) for a in (1, 2, 3) for b in (1, 2, 3)]
            cells = {c for c in grid if rng.random() < p}
            n_max = max((n for (n, _, _) in cells), default=0)
            pointed = sorted(n for (n, a, b) in cells if n >= 1 and a == b == 1)
            l, m = (pointed[0], pointed[-1]) if pointed else (None, 0)
            core = nsp_core_reference(cells)
            forcing = nsp_forcing_reference(cells, l, m)
            seen |= {("core", core), ("forcing", forcing)}
            for t in tables(cells, n_max + 1):
                assert has_nsp_core(t, n_max) == core, cells
                assert nsp_forcing_ok(t, l, m, n_max) == forcing, cells
                for a in (1, 2, 3):
                    for b in (1, 2, 3):
                        assert backed(t, (a, b)) == ((0, a, a) in cells and (0, b, b) in cells)
        assert seen == {(rule, held) for rule in ("core", "forcing") for held in (True, False)}



class TestSymmetricSupport:
    """A support of mirror pairs is symmetric, so its row masks can serve as its column masks."""

    def test_aliased_columns_give_the_same_answers(self):
        rng = random.Random(26)
        seen = set()
        for _ in range(500):
            p = rng.uniform(0.15, 0.6)
            pairs = [(0, d, d) for d in (2, 3, 4) if rng.random() < p]
            pairs += [(n, a, b) for n in range(1, 5) for a in range(1, 5) for b in range(a, 5)
                      if rng.random() < p]
            cells = {(0, 1, 1)} | {c for n, a, b in pairs for c in ((n, a, b), (n, b, a))}
            levels = max(n for n, _, _ in cells) + 1
            built = Support(levels, 4, cells)
            # as the solver places them: one row mask per cell, the columns aliased
            aliased = Support(levels, 4, [(0, 1, 1)])
            aliased.cols = aliased.rows
            for n, a, b in pairs:
                aliased.rows[n][a] |= 1 << b
                aliased.rows[n][b] |= 1 << a
                aliased.present[n] |= 1 << a | 1 << b
                if a != b:
                    aliased.offdiag[n] |= 1 << a | 1 << b
            assert (aliased.present, aliased.offdiag) == (built.present, built.offdiag)
            pointed = sorted(n for (n, a, b) in cells if n >= 1 and a == b == 1)
            l, m = (pointed[0], pointed[-1]) if pointed else (None, 0)
            for n_max in range(levels):
                core = has_nsp_core(built, n_max)
                forcing = nsp_forcing_ok(built, l, m, n_max)
                assert has_nsp_core(aliased, n_max) == core, cells
                assert nsp_forcing_ok(aliased, l, m, n_max) == forcing, cells
                seen |= {("core", core), ("forcing", forcing)}
            for n in range(levels + 1):
                for d1 in range(1, 5):
                    for d2 in range(1, 5):
                        for start in range(1, n + 1):
                            gap = chain_gap(built, n, d1, d2, start)
                            assert chain_gap(aliased, n, d1, d2, start) == gap, cells
                            seen.add(("gap", bool(gap)))
        assert seen == {(rule, held) for rule in ("core", "forcing", "gap")
                        for held in (True, False)}

def relabel(s: BlockSystem, d_of) -> BlockSystem:
    """s with each d replaced by d_of(d)."""
    return BlockSystem(s.group_order, {(n, d_of(a), d_of(b)): v for (n, a, b), v in s.blocks.items()})


def violated(s: BlockSystem, flags, d_back) -> list:
    """check's report as (rule, indices), each index's d mapped through d_back."""
    return [
        (v.rule, [(i.level, d_back(i.d1), d_back(i.d2)) for i in v.indices])
        for v in check(s, flags)
    ]


class TestRankedSupport:
    """check keys each d by its rank, so a support mask has one bit per distinct d.

    With r = 1 and every dimension 1, each rule's verdict depends only on
    which cells are occupied and on the order of the d, so an order-keeping
    relabelling of the d must give the same report.
    """

    def test_huge_d_give_the_small_d_violations(self):
        rng = random.Random(35)
        big = {1: 1, 2: 10**12, 3: 10**12 + 1, 4: 3 * 10**12}
        back = {v: k for k, v in big.items()}
        seen = set()
        start = time.perf_counter()
        for _ in range(300):
            cells = {(n, d1, d1 if n == 0 else rng.randint(1, 4))
                     for n, d1 in ((rng.randint(0, 4), rng.randint(1, 4))
                                   for _ in range(rng.randint(0, 12)))}
            small = BlockSystem(1, {c: 1 for c in cells})
            for flags in ALL_FLAGS:
                expected = violated(small, flags, int)
                seen.update(rule for rule, _ in expected)
                assert violated(relabel(small, big.get), flags, back.get) == expected
        assert time.perf_counter() - start < 10.0
        assert {"R4", "R5", "R7", "R8", "R9", "R11"} <= seen

    def test_two_hundred_distinct_d_in_bounded_time_and_memory(self):
        # each d with its coradical block, level-1 edge pair and level-2
        # diagonal block, and a level-3 cell to the next d that escalates
        # nowhere; the d lie 5,000 apart, so a mask with a bit per d value
        # would take about 125 KB, and the hundreds of them would pass the
        # memory bound many times over
        def tower(ds):
            blocks = {(2, 1, 1): 1}
            for d, e in zip(ds, ds[1:] + ds[:1]):
                blocks.update({(0, d, d): 1, (1, d, 1): 1, (1, 1, d): 1, (2, d, d): 1, (3, d, e): 1})
            return BlockSystem(1, blocks)

        small = list(range(2, 202))
        huge = [5_000 * k for k in small]
        expected = violated(tower(small), NSP, int)
        # R7's core is found, R4 and R5 report the level-3 cells
        rules = {rule for rule, _ in expected}
        assert {"R4", "R5"} <= rules and "R7" not in rules
        tracemalloc.start()
        try:
            start = time.perf_counter()
            got = violated(tower(huge), NSP, lambda d: d // 5_000 if d > 1 else d)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == expected
        assert elapsed < 5.0
        assert peak < 8 * 2**20, peak

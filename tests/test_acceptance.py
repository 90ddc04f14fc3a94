"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings as they complete.  Time limits are asserted with the stated
budgets; actual runtimes are far below them.
"""

import functools
import random
import time

from blocksieve.analyzer import analyze
from blocksieve.blocks import (
    NON_COSEMISIMPLE,
    NSP,
    PLAIN,
    BlockSystem,
    ModeFlags,
    parse_block_system,
    serialize_block_system,
    total_dim,
    transpose,
)
from blocksieve.coalgebra import change_basis, parse_coalgebra
from blocksieve.corpus import (
    CORPUS_BUILDERS,
    grouplike_coalgebra,
    s3_dual_coalgebra,
    sweedler_coalgebra,
    sweedler_tensor_square,
)
from blocksieve.oracle import oracle_solve
from blocksieve.rules import check
from blocksieve.solver import (
    FeasibilityProblem,
    admissible_group_orders,
    lower_bound,
    minimal_form,
    scan,
    solve,
)

from conftest import CORPUS_DIR, random_change_of_basis, random_system


def criterion(num, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\ncriterion {num:2d} FAIL ({time.time() - start:7.2f}s)  {description}")
                raise
            print(f"\ncriterion {num:2d} PASS ({time.time() - start:7.2f}s)  {description}")
        return wrapper
    return decorate


def scan_excluded(r, t_max, flags):
    rows = scan(r, t_max, flags)
    excluded = {t for (t, verdict, _) in rows if verdict == "infeasible"}
    return rows, excluded


@criterion(1, "lower bound values for r in {3, 2, 5, 7}, < 1 ms each")
def test_criterion_1_lower_bound():
    assert lower_bound(3) == (42, frozenset({2, 3}))
    assert lower_bound(2) == (20, frozenset({2}))
    assert lower_bound(5) == (70, frozenset({2}))
    assert lower_bound(7) == (98, frozenset({2}))
    for r in (3, 2, 5, 7):
        lower_bound(r)  # warm call
        t0 = time.perf_counter()
        lower_bound(r)
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.001, f"lower_bound({r}) took {elapsed * 1000:.3f} ms"


@criterion(2, "scan r=2, t<=16: excluded exactly {1..9,11,13,15}, witnesses checked, < 60 s")
def test_criterion_2_scan_r2():
    start = time.time()
    rows, excluded = scan_excluded(2, 16, NSP)
    assert excluded == {1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 15}
    for t, verdict, cert in rows:
        if verdict == "feasible":
            assert t in {10, 12, 14, 16}
            assert check(cert.witness, NSP) == []
            assert total_dim(cert.witness) == 2 * t
    assert time.time() - start < 60


@criterion(3, "scan r=3, t<=20: excluded exactly {1..13,15,16,19}, witnesses for {14,17,18,20}, < 5 min")
def test_criterion_3_scan_r3():
    start = time.time()
    rows, excluded = scan_excluded(3, 20, NSP)
    assert excluded == set(range(1, 14)) | {15, 16, 19}
    feasible = {t for (t, verdict, _) in rows if verdict == "feasible"}
    assert feasible == {14, 17, 18, 20}
    for t, verdict, cert in rows:
        if verdict == "feasible":
            assert check(cert.witness, NSP) == []
            assert total_dim(cert.witness) == 3 * t
    assert time.time() - start < 300


@criterion(4, "scan r=5, t<=21: excluded {1..13,15,16,17,20,21}, t=19 feasible; r=7 has t=21 feasible; < 10 min")
def test_criterion_4_scan_r5_r7():
    start = time.time()
    _rows5, excluded5 = scan_excluded(5, 21, NSP)
    assert excluded5 == set(range(1, 14)) | {15, 16, 17, 20, 21}
    assert 19 not in excluded5
    rows7, excluded7 = scan_excluded(7, 21, NSP)
    assert 21 not in excluded7
    cert21 = next(cert for (t, _v, cert) in rows7 if t == 21)
    assert check(cert21.witness, NSP) == []
    assert time.time() - start < 600


@criterion(5, "solve infeasible for (36,3), (45,3), (75,5), (100,5) under nsp, < 60 s each")
def test_criterion_5_group_order_exclusions():
    for n, r in [(36, 3), (45, 3), (75, 5), (100, 5)]:
        start = time.time()
        assert not solve(FeasibilityProblem(n, r, NSP)).feasible, (n, r)
        assert time.time() - start < 60


@criterion(6, "admissible_group_orders(30, nsp) is empty, < 60 s")
def test_criterion_6_dimension_30():
    start = time.time()
    assert admissible_group_orders(30, NSP) == set()
    assert time.time() - start < 60


@criterion(7, "oracle equivalence on the full grid N<=60, r in {1..6}, both regimes, verdicts and witnesses, < 30 min")
def test_criterion_7_oracle_equivalence():
    start = time.time()
    points = 0
    for r in range(1, 7):
        for n in range(r, 61, r):
            for flags in (NSP, NON_COSEMISIMPLE):
                a = solve(FeasibilityProblem(n, r, flags))
                b = oracle_solve(n, r, flags)
                # both document the lexicographically least witness
                assert (a.verdict, a.witness) == (b.verdict, b.witness), (n, r, flags)
                points += 1
    assert points == 294
    assert time.time() - start < 1800


@criterion(8, "minimal forms pass nsp rules and total (2d+2)r + 2*lcm(d^2,r) for r<=8, d<=5")
def test_criterion_8_minimal_forms():
    import math

    for r in range(1, 9):
        for d in range(2, 6):
            s = minimal_form(r, d)
            assert check(s, NSP) == []
            expected = (2 * d + 2) * r + 2 * (d * d * r // math.gcd(d * d, r))
            assert total_dim(s) == expected


@criterion(9, "analyzer corpus: filtrations and block systems exactly as expected, < 5 s each")
def test_criterion_9_analyzer_corpus():
    start = time.time()
    res = analyze(sweedler_coalgebra(), NON_COSEMISIMPLE)
    assert res.filtration.dims == (2, 4)
    assert res.block_system == BlockSystem(2, {(0, 1, 1): 2, (1, 1, 1): 2})
    assert time.time() - start < 5

    for n in (2, 3, 4, 7):
        start = time.time()
        res = analyze(grouplike_coalgebra(n), PLAIN)
        assert res.block_system == BlockSystem(n, {(0, 1, 1): n})
        assert time.time() - start < 5

    start = time.time()
    res = analyze(s3_dual_coalgebra(), PLAIN)
    assert res.block_system == BlockSystem(2, {(0, 1, 1): 2, (0, 2, 2): 4})
    assert time.time() - start < 5

    start = time.time()
    res = analyze(sweedler_tensor_square(), NON_COSEMISIMPLE)
    assert res.filtration.dims == (4, 12, 16)
    assert total_dim(res.block_system) == 16
    assert time.time() - start < 5


@criterion(10, "property suites: involution, transpose invariance, basis-change battery, round trips, sub-bound infeasibility")
def test_criterion_10_property_suites():
    rng = random.Random(2024)

    # transpose is an involution preserving totals
    for _ in range(200):
        s = random_system(rng)
        assert transpose(transpose(s)) == s
        assert total_dim(transpose(s)) == total_dim(s)

    # rule-check transpose invariance
    for _ in range(200):
        s = random_system(rng)
        for flags in (PLAIN, NON_COSEMISIMPLE, NSP):
            assert (check(s, flags) == []) == (check(transpose(s), flags) == [])

    # serialize / parse round trips
    for _ in range(200):
        s = random_system(rng)
        assert parse_block_system(serialize_block_system(s)) == s

    # basis-change invariance: 20 random rational changes per corpus item
    def label_free(res):
        dims = {s.label: s.d for s in res.components}
        return sorted((n, dims[t], dims[m], v) for (n, t, m), v in res.q_table.items())

    for name, build in sorted(CORPUS_BUILDERS.items()):
        c = parse_coalgebra((CORPUS_DIR / name).read_bytes())
        assert c == build()
        base = analyze(c, PLAIN)
        for _ in range(20):
            moved = change_basis(c, random_change_of_basis(rng, c.dim))
            res = analyze(moved, PLAIN)
            assert res.block_system == base.block_system, name
            assert res.filtration.dims == base.filtration.dims, name
            assert label_free(res) == label_free(base), name

    # every multiple of r strictly below the bound is infeasible
    for r in range(1, 8):
        n_min, _ = lower_bound(r)
        for n in range(r, n_min, r):
            assert not solve(FeasibilityProblem(n, r, NSP)).feasible, (n, r)


@criterion(11, "the paper's dimensions: orders of 45 and 105 under nsp and under auto-nsp, < 60 s")
def test_criterion_11_paper_dimensions():
    start = time.time()
    assert admissible_group_orders(45, NSP) == set()
    assert admissible_group_orders(105, NSP) == {3}
    auto = ModeFlags(non_cosemisimple=True, auto_nsp=True)
    assert admissible_group_orders(45, auto) == {3, 15}
    assert admissible_group_orders(105, auto) == {3}
    assert time.time() - start < 60


@criterion(12, "oracle equivalence on every divisor pair of the odd composite N<153, nsp and auto-nsp, oracle < 10 s")
def test_criterion_12_odd_dimensions():
    # the paper's 45 and 105 among them, and criterion 5's (45,3) and (75,5);
    # from N = 171 the solver passes its node cap at r = 3 (ROADMAP item 3)
    start = time.time()
    oracle_s = 0.0
    pairs = 0
    auto = ModeFlags(non_cosemisimple=True, auto_nsp=True)
    for n in range(9, 153, 2):
        for r in range(2, n):
            if n % r:
                continue
            pairs += 1
            for flags in (NSP, auto):
                a = solve(FeasibilityProblem(n, r, flags))
                t0 = time.time()
                b = oracle_solve(n, r, flags)
                oracle_s += time.time() - t0
                assert (a.verdict, a.witness) == (b.verdict, b.witness), (n, r, flags)
    assert pairs == 97
    assert oracle_s < 10, f"oracle side took {oracle_s:.1f} s"
    assert time.time() - start < 120

import random
from fractions import Fraction

import pytest

import blocksieve.analyzer
from blocksieve.analyzer import (
    CoalgebraInvalidError,
    NonSplitCoradicalError,
    analyze,
    filtration_is_compatible,
    radical,
)
from blocksieve.blocks import NON_COSEMISIMPLE, NSP, PLAIN, BlockSystem, total_dim
from blocksieve.coalgebra import Algebra, Coalgebra, change_basis, dual_algebra
from blocksieve.corpus import (
    grouplike_coalgebra,
    matrix_coalgebra,
    s3_dual_coalgebra,
    sweedler_coalgebra,
    sweedler_tensor_square,
)

from conftest import random_change_of_basis

F = Fraction


def truncated_polynomial_algebra() -> Algebra:
    """k[t]/(t^2) on basis 1, t: 1*1 = 1, 1*t = t*1 = t, t*t = 0."""
    mult = (
        {0: ((0, F(1)),), 1: ((1, F(1)),)},
        {0: ((1, F(1)),)},
    )
    return Algebra(2, mult, (F(1), F(0)))


def two_primitives_coalgebra() -> Coalgebra:
    """Two independent level-1 elements in the same (1, g) isotypic slot.

    Aggregated blocks look exactly like the admissible 4-dimensional table,
    but the per-component dimension 2 != 1 = d_tau^2 forces escalation that
    is not there; only the analyzer can see this.
    """
    delta = (
        (0, 0, 0, F(1)),
        (1, 1, 1, F(1)),
        (2, 0, 2, F(1)), (2, 2, 1, F(1)),
        (3, 0, 3, F(1)), (3, 3, 1, F(1)),
    )
    return Coalgebra(4, ("1", "g", "x", "y"), delta, (F(1), F(1), F(0), F(0)))


class TestRadical:
    def test_semisimple_dual_of_grouplikes(self):
        assert radical(dual_algebra(grouplike_coalgebra(3))) == []

    def test_sweedler_dual_radical_is_span_of_x_gx_duals(self):
        j = radical(dual_algebra(sweedler_coalgebra()))
        assert len(j) == 2
        # x* and (gx)* span: coordinates 2 and 3
        assert sorted(tuple(v) for v in j) == [(0, 0, 0, 1), (0, 0, 1, 0)]

    def test_truncated_polynomials(self):
        assert radical(truncated_polynomial_algebra()) == [[0, 1]]

    def test_matrix_coalgebra_dual_is_semisimple(self):
        for d in (2, 3):
            a = dual_algebra(matrix_coalgebra(d))
            assert radical(a) == []
            comps = analyze(matrix_coalgebra(d), PLAIN).components
            assert [(s.label, s.d) for s in comps] == [("s0", d)]


def _dense_hit(c, f, left):
    """Reference hit map in Fractions: column i is the image of e_i."""
    m = [[Fraction(0)] * c.dim for _ in range(c.dim)]
    for (i, j, k, x) in c.delta:
        used, out = (j, k) if left else (k, j)
        m[out][i] += x * f[used]
    return m


class TestHitMaps:
    def test_equal_dense_reference_up_to_one_positive_scalar(self):
        rng = random.Random(17)
        cases = [sweedler_coalgebra(), s3_dual_coalgebra(), matrix_coalgebra(2),
                 change_basis(sweedler_tensor_square(),
                              random_change_of_basis(rng, 16))]
        for c in cases:
            functionals = [list(s.idempotent) for s in analyze(c, PLAIN).components]
            functionals.append([Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                                for _ in range(c.dim)])
            for f in functionals:
                maps = blocksieve.analyzer._hit_maps(c, f)
                for left, sparse in zip((True, False), maps):
                    ref = _dense_hit(c, f, left)
                    got = [[Fraction(0)] * c.dim for _ in range(c.dim)]
                    for i, image in enumerate(sparse):
                        for t, y in image:
                            assert isinstance(y, int) and y != 0
                            got[t][i] = Fraction(y)
                    pairs = [(g, r) for gr, rr in zip(got, ref) for g, r in zip(gr, rr)]
                    scale = next((g / r for g, r in pairs if r), None)
                    if scale is None:
                        assert not any(g for g, _r in pairs)
                        continue
                    assert scale > 0
                    assert all(g == scale * r for g, r in pairs)


class TestFiltration:
    def test_grouplike_chain(self):
        assert analyze(grouplike_coalgebra(3), PLAIN).filtration.dims == (3,)

    def test_sweedler_chain(self):
        assert analyze(sweedler_coalgebra(), PLAIN).filtration.dims == (2, 4)

    def test_tensor_square_chain(self):
        assert analyze(sweedler_tensor_square(), PLAIN).filtration.dims == (4, 12, 16)

    def test_compatibility_with_comultiplication(self):
        for build in (sweedler_coalgebra, s3_dual_coalgebra, grouplike_coalgebra):
            c = build() if build is not grouplike_coalgebra else build(3)
            assert filtration_is_compatible(c, analyze(c, PLAIN).filtration)

    def test_tensor_square_compatibility(self):
        c = sweedler_tensor_square()
        assert filtration_is_compatible(c, analyze(c, PLAIN).filtration)


class TestSimpleComponents:
    def test_three_grouplikes(self):
        comps = analyze(grouplike_coalgebra(3), PLAIN).components
        assert [(s.label, s.d) for s in comps] == [("g0", 1), ("g1", 1), ("g2", 1)]
        assert all(s.is_grouplike for s in comps)

    def test_s3_dual_wedderburn(self):
        comps = analyze(s3_dual_coalgebra(), PLAIN).components
        assert sorted(s.d for s in comps) == [1, 1, 2]
        assert sum(1 for s in comps if s.is_grouplike) == 2

    def test_group_algebra_as_coalgebra_is_pointed(self):
        # pointedness is a property of the coalgebra, not of how the dual
        # algebra would split as a group algebra
        comps = analyze(grouplike_coalgebra(3), PLAIN).components
        assert sum(1 for s in comps if s.is_grouplike) == 3

    def test_sweedler_grouplikes_named_by_basis(self):
        comps = analyze(sweedler_coalgebra(), PLAIN).components
        assert [s.label for s in comps] == ["1", "g"]

    def test_non_split_rejected(self):
        # dual algebra Q[t]/(t^2 + t + 1), a field of degree 2
        delta = (
            (0, 0, 0, F(1)), (0, 1, 1, F(-1)),
            (1, 0, 1, F(1)), (1, 1, 0, F(1)), (1, 1, 1, F(-1)),
        )
        c = Coalgebra(2, ("c0", "c1"), delta, (F(1), F(0)))
        assert c and not radical(dual_algebra(c))
        with pytest.raises(NonSplitCoradicalError, match="extend scalars"):
            analyze(c, PLAIN)


class TestQTable:
    def test_sweedler(self):
        assert analyze(sweedler_coalgebra(), PLAIN).q_table == {(1, "g", "1"): 1, (1, "1", "g"): 1}

    def test_cosemisimple_is_empty(self):
        assert analyze(s3_dual_coalgebra(), PLAIN).q_table == {}

    def test_level_sums_match_filtration_jumps(self):
        for build in (sweedler_coalgebra, sweedler_tensor_square):
            c = build()
            res = analyze(c, PLAIN)
            chain, table = res.filtration, res.q_table
            for n in range(1, len(chain)):
                jump = chain.dims[n] - chain.dims[n - 1]
                assert sum(v for (lev, _t, _m), v in table.items() if lev == n) == jump


class TestAnalyze:
    def test_sweedler_skew_allowed(self):
        res = analyze(sweedler_coalgebra(), NON_COSEMISIMPLE)
        assert res.block_system == BlockSystem(2, {(0, 1, 1): 2, (1, 1, 1): 2})
        assert res.rule_report == ()
        assert res.verdict == "passes all necessary conditions (no admissibility claim)"

    def test_sweedler_nsp_fails_r7(self):
        res = analyze(sweedler_coalgebra(), NSP)
        assert any(v.rule == "R7" for v in res.rule_report)
        assert res.verdict.startswith("fails necessity")

    def test_s3_dual(self):
        res = analyze(s3_dual_coalgebra(), PLAIN)
        assert res.block_system == BlockSystem(2, {(0, 1, 1): 2, (0, 2, 2): 4})
        assert res.rule_report == ()
        res2 = analyze(s3_dual_coalgebra(), NON_COSEMISIMPLE)
        assert [v.rule for v in res2.rule_report] == ["RNC"]

    def test_grouplike_orders(self):
        for n in (2, 3, 5):
            res = analyze(grouplike_coalgebra(n), PLAIN)
            assert res.block_system == BlockSystem(n, {(0, 1, 1): n})

    def test_tensor_square(self):
        res = analyze(sweedler_tensor_square(), NON_COSEMISIMPLE)
        assert res.filtration.dims == (4, 12, 16)
        assert total_dim(res.block_system) == 16
        assert res.block_system.group_order == 4

    def test_matrix_coalgebra_has_no_grouplikes(self):
        res = analyze(matrix_coalgebra(2), PLAIN)
        assert res.block_system.group_order == 0
        assert any(v.rule == "R0" for v in res.rule_report)

    def test_component_escalation_violation(self):
        res = analyze(two_primitives_coalgebra(), NON_COSEMISIMPLE)
        # block table alone is the admissible Sweedler shape
        assert res.block_system == BlockSystem(2, {(0, 1, 1): 2, (1, 1, 1): 2})
        finer = [v for v in res.rule_report if "isotypic escalation" in v.message]
        assert len(finer) == 1 and finer[0].rule == "R5"

    def test_invalid_coalgebra_raises(self):
        delta = ((0, 0, 0, F(1)), (1, 1, 0, F(1)))
        c = Coalgebra(2, ("1", "x"), delta, (F(1), F(0)))
        with pytest.raises(CoalgebraInvalidError):
            analyze(c, PLAIN)

    def test_total_dim_always_matches(self):
        for build in (sweedler_coalgebra, s3_dual_coalgebra, sweedler_tensor_square):
            c = build()
            res = analyze(c, PLAIN)
            assert total_dim(res.block_system) == c.dim

    def test_json_shape(self):
        res = analyze(sweedler_coalgebra(), NON_COSEMISIMPLE)
        payload = res.as_json_dict()
        assert payload["filtration_dims"] == [2, 4]
        assert payload["verdict"] == res.verdict
        assert {e["tau"] for e in payload["q_table"]} == {"1", "g"}

    def test_mixed_component_sizes_above_level_zero(self):
        # tensoring the S3 dual with the skew-primitive coalgebra puts
        # 2-dimensional simple components in play at level 1
        from blocksieve.coalgebra import tensor_product

        c = tensor_product(s3_dual_coalgebra(), sweedler_coalgebra())
        res = analyze(c, NON_COSEMISIMPLE)
        assert sorted(s.d for s in res.components) == [1, 1, 1, 1, 2, 2]
        assert res.filtration.dims == (12, 24)
        assert res.block_system == BlockSystem(
            4, {(0, 1, 1): 4, (0, 2, 2): 8, (1, 1, 1): 4, (1, 2, 2): 8}
        )
        assert res.rule_report == ()
        # each 2x2 component links to the other with one simple bicomodule
        dims = {s.label: s.d for s in res.components}
        big_pairs = {
            (t, m): v for (n, t, m), v in res.q_table.items() if dims[t] == 2
        }
        assert sorted(big_pairs.values()) == [4, 4]


class TestComputeOnce:
    def test_analyze_builds_dual_and_radical_once(self, monkeypatch):
        calls = {"dual_algebra": 0, "radical": 0}

        def counting(name):
            original = getattr(blocksieve.analyzer, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(blocksieve.analyzer, name, counting(name))
        analyze(sweedler_tensor_square(), NON_COSEMISIMPLE)
        assert calls == {"dual_algebra": 1, "radical": 1}


def label_free_q_table(res):
    dims = {s.label: s.d for s in res.components}
    return sorted((n, dims[t], dims[m], v) for (n, t, m), v in res.q_table.items())


class TestBasisChangeInvariance:
    # the acceptance suite runs the full 20-change battery; this is a smoke run
    @pytest.mark.parametrize("build,flags", [
        (sweedler_coalgebra, NON_COSEMISIMPLE),
        (s3_dual_coalgebra, PLAIN),
    ])
    def test_invariant_under_random_changes(self, build, flags):
        rng = random.Random(42)
        c = build()
        base = analyze(c, flags)
        for _ in range(5):
            moved = change_basis(c, random_change_of_basis(rng, c.dim))
            res = analyze(moved, flags)
            assert res.block_system == base.block_system
            assert res.filtration.dims == base.filtration.dims
            assert label_free_q_table(res) == label_free_q_table(base)

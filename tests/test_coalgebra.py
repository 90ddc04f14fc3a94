import random
from fractions import Fraction

import pytest

from blocksieve.coalgebra import (
    Coalgebra,
    CoalgebraParseError,
    change_basis,
    dual_algebra,
    parse_coalgebra,
    serialize_coalgebra,
    tensor_product,
    validate,
)
from blocksieve.corpus import (
    CORPUS_BUILDERS,
    grouplike_coalgebra,
    matrix_coalgebra,
    s3_dual_coalgebra,
    sweedler_coalgebra,
    sweedler_tensor_square,
)

from conftest import random_change_of_basis


class TestValidate:
    def test_grouplike_coalgebra_ok(self):
        assert validate(grouplike_coalgebra(3)) == []

    def test_sweedler_ok(self):
        assert validate(sweedler_coalgebra()) == []

    def test_broken_counit_reported_at_x(self):
        # Delta x = x (x) 1 only: counit law fails at the basis index of x
        delta = (
            (0, 0, 0, Fraction(1)),
            (1, 1, 1, Fraction(1)),
            (2, 2, 0, Fraction(1)),
        )
        c = Coalgebra(3, ("1", "g", "x"), delta, (Fraction(1), Fraction(1), Fraction(0)))
        failures = validate(c)
        assert any("counit law fails at basis index 2" in f for f in failures)

    def test_broken_coassociativity_reported(self):
        # Delta x = x (x) g + 1 (x) x is not coassociative (mixed coefficients)
        delta = (
            (0, 0, 0, Fraction(1)),
            (1, 1, 1, Fraction(1)),
            (2, 2, 1, Fraction(1)),
            (2, 0, 2, Fraction(2)),
        )
        c = Coalgebra(3, ("1", "g", "x"), delta, (Fraction(1), Fraction(1), Fraction(0)))
        assert validate(c) == [
            "coassociativity fails at basis index 2 (x)",
            "counit law fails at basis index 2 (x)",
        ]

    def test_rational_constants_checked_exactly(self):
        # Sweedler's coalgebra in a basis with denominators 2 and 3, one
        # coefficient then shifted by 1/7: the integer-scaled check must name
        # the same first failures as the rational one
        P = [[1, Fraction(1, 2), 0, 0], [0, 1, 0, 0],
             [0, 0, 1, Fraction(-2, 3)], [0, 0, 0, 1]]
        c = change_basis(sweedler_coalgebra(), P)
        assert validate(c) == []
        delta = list(c.delta)
        i, j, k, x = delta[3]
        delta[3] = (i, j, k, x + Fraction(1, 7))
        broken = Coalgebra(c.dim, c.basis, tuple(delta), c.counit)
        assert validate(broken) == [
            "coassociativity fails at basis index 0 (f0)",
            "counit law fails at basis index 0 (f0)",
        ]


def _dense(a, terms) -> list[Fraction]:
    """A product's (i, c) terms as a dense coordinate vector."""
    out = [Fraction(0)] * a.dim
    for i, x in terms:
        out[i] += x
    return out


class TestDualAlgebra:
    def test_grouplike_dual_is_componentwise(self):
        a = dual_algebra(grouplike_coalgebra(3))
        for i in range(3):
            for j in range(3):
                expected = [Fraction(1) if (i == j == k) else Fraction(0) for k in range(3)]
                assert _dense(a, a.mult[i].get(j, ())) == expected
        assert a.is_associative()

    def test_matrix_coalgebra_dual_is_matrix_algebra(self):
        a = dual_algebra(matrix_coalgebra(2))
        # basis e11,e12,e21,e22; dual product: E_ab * E_cd = delta_bc E_ad
        def idx(i, j):
            return i * 2 + j

        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        product = a.mult[idx(i, j)].get(idx(k, l), ())
                        expected = [Fraction(0)] * 4
                        if j == k:
                            expected[idx(i, l)] = Fraction(1)
                        assert _dense(a, product) == expected

    def test_associativity_follows_from_coassociativity(self):
        rng = random.Random(8)
        for build in (sweedler_coalgebra, s3_dual_coalgebra):
            c = build()
            assert validate(c) == []
            assert dual_algebra(c).is_associative()
            c2 = change_basis(c, random_change_of_basis(rng, c.dim))
            assert dual_algebra(c2).is_associative()

    def test_constants_are_delta_read_backwards(self):
        rng = random.Random(13)
        coalgebras = [build() for build in CORPUS_BUILDERS.values()]
        coalgebras.append(
            change_basis(sweedler_coalgebra(), random_change_of_basis(rng, 4))
        )
        for c in coalgebras:
            a = dual_algebra(c)
            stored = [x for row in a.mult for terms in row.values() for _i, x in terms]
            assert len(stored) == len(c.delta)
            assert all(x != 0 for x in stored)
            expected = {}
            for (i, j, k, x) in c.delta:
                expected.setdefault((j, k), [Fraction(0)] * c.dim)[i] += x
            for j in range(c.dim):
                for k in range(c.dim):
                    e_j = [Fraction(int(t == j)) for t in range(c.dim)]
                    e_k = [Fraction(int(t == k)) for t in range(c.dim)]
                    assert a.multiply(e_j, e_k) == expected.get(
                        (j, k), [Fraction(0)] * c.dim
                    )

    def test_unit_is_counit(self):
        c = sweedler_coalgebra()
        a = dual_algebra(c)
        assert a.unit == c.counit


class TestTensorProduct:
    def test_dimensions_and_validity(self):
        ts = sweedler_tensor_square()
        assert ts.dim == 16
        assert validate(ts) == []

    def test_grouplike_times_grouplike(self):
        c = tensor_product(grouplike_coalgebra(2), grouplike_coalgebra(3))
        assert c.dim == 6
        assert validate(c) == []


class TestChangeBasis:
    def test_preserves_validity(self):
        rng = random.Random(21)
        c = sweedler_coalgebra()
        for _ in range(5):
            c2 = change_basis(c, random_change_of_basis(rng, c.dim))
            assert validate(c2) == []

    def test_identity_change(self):
        c = sweedler_coalgebra()
        c2 = change_basis(c, [[1 if i == j else 0 for j in range(4)] for i in range(4)])
        assert c2.delta == c.delta
        assert c2.counit == c.counit

    def test_rejects_singular(self):
        c = grouplike_coalgebra(2)
        with pytest.raises(ValueError, match="singular"):
            change_basis(c, [[1, 1], [1, 1]])


class TestSerialization:
    def test_round_trip_all_builders(self):
        for name, build in CORPUS_BUILDERS.items():
            c = build()
            assert parse_coalgebra(serialize_coalgebra(c)) == c, name

    def test_corpus_files_match_builders(self, corpus_dir):
        for name, build in CORPUS_BUILDERS.items():
            data = (corpus_dir / name).read_bytes()
            assert parse_coalgebra(data) == build(), name

    def test_rejects_unknown_fields(self):
        with pytest.raises(CoalgebraParseError, match="unknown"):
            parse_coalgebra('{"dim": 1, "basis": ["g"], "delta": [[0,0,0,"1"]], '
                            '"counit": ["1"], "field": "Q", "extra": 0}')

    def test_rejects_other_fields_value(self):
        with pytest.raises(CoalgebraParseError, match="field"):
            parse_coalgebra('{"dim": 1, "basis": ["g"], "delta": [[0,0,0,"1"]], '
                            '"counit": ["1"], "field": "R"}')

    def test_rejects_float_coefficients(self):
        with pytest.raises(CoalgebraParseError, match="strings or integers"):
            parse_coalgebra('{"dim": 1, "basis": ["g"], "delta": [[0,0,0,0.5]], '
                            '"counit": ["1"], "field": "Q"}')

    def test_rejects_malformed_rational_string(self):
        with pytest.raises(CoalgebraParseError, match="bad rational"):
            parse_coalgebra('{"dim": 1, "basis": ["g"], "delta": [[0,0,0,"x/y"]], '
                            '"counit": ["1"], "field": "Q"}')

    def test_accepts_integer_coefficients(self):
        c = parse_coalgebra('{"dim": 1, "basis": ["g"], "delta": [[0,0,0,1]], '
                            '"counit": [1], "field": "Q"}')
        assert c == grouplike_coalgebra(1).__class__(
            1, ("g",), ((0, 0, 0, Fraction(1)),), (Fraction(1),)
        )

    def test_rejects_out_of_range_index(self):
        with pytest.raises(CoalgebraParseError, match="out of range"):
            parse_coalgebra('{"dim": 1, "basis": ["g"], "delta": [[0,0,1,"1"]], '
                            '"counit": ["1"], "field": "Q"}')

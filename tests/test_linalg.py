import random
from fractions import Fraction

import pytest

from blocksieve import linalg


class TestEchelon:
    def test_known_matrix(self):
        ech, pivots = linalg.echelon([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
        assert pivots == [0, 1]
        assert ech == [[1, 0, 1], [0, 1, 1]]

    def test_rational_rows_are_scaled(self):
        rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]]
        assert linalg.rank(rows) == 1

    def test_rank_of_random_products(self):
        rng = random.Random(2)
        for _ in range(20):
            # build a rank-k matrix as a product of k-column factors
            n, k = 6, rng.randint(1, 4)
            a = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(n)]
            b = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
            m = [
                [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)]
                for i in range(n)
            ]
            assert linalg.rank(m) <= k

    def test_empty(self):
        assert linalg.echelon([]) == ([], [])
        assert linalg.rank([[0, 0], [0, 0]]) == 0


class TestNullspace:
    def test_kernel_vectors_annihilate(self):
        rng = random.Random(3)
        for _ in range(30):
            rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(3)]
            for v in linalg.nullspace(rows, ncols=5):
                assert all(sum(r[j] * v[j] for j in range(5)) == 0 for r in rows)

    def test_dimension_formula(self):
        rows = [[1, 2, 3], [2, 4, 6]]
        assert len(linalg.nullspace(rows)) == 3 - linalg.rank(rows)

    def test_empty_matrix_gives_identity(self):
        assert linalg.nullspace([], ncols=2) == [[1, 0], [0, 1]]


class TestMembership:
    def test_in_span(self):
        ech, piv = linalg.echelon([[1, 0, 1], [0, 1, 1]])
        assert linalg.in_span([3, 2, 5], ech, piv)
        assert not linalg.in_span([0, 0, 1], ech, piv)

    def test_solve_coords(self):
        coords = linalg.solve_coords([[1, 0, 1], [0, 1, 1]], [2, 3, 5])
        assert coords == [Fraction(2), Fraction(3)]
        assert linalg.solve_coords([[1, 0, 1], [0, 1, 1]], [2, 3, 4]) is None


class TestRationalRoots:
    @pytest.mark.parametrize(
        "poly,roots,split",
        [
            ([2, -3, 1], [1, 2], True),              # (t-1)(t-2)
            ([-2, 0, 1], [], False),                 # t^2 - 2
            ([-15, 7, 2], [-5, Fraction(3, 2)], True),
            ([0, 1, -2, 1], [0, 1], True),           # t(t-1)^2
            ([6, 11, 6, 1], [-3, -2, -1], True),
            ([1, 0, 1], [], False),                  # t^2 + 1
            ([-1, 0, 0, 1], [1], False),             # t^3 - 1
        ],
    )
    def test_table(self, poly, roots, split):
        got_roots, got_split = linalg.rational_roots(poly)
        assert got_roots == [Fraction(x) for x in roots]
        assert got_split is split

    def test_huge_split_polynomial(self):
        big = 10**15
        # (t - big)(big*t + 1) = big*t^2 + (1 - big^2) t - big
        roots, split = linalg.rational_roots([-big, 1 - big * big, big])
        assert split
        assert roots == [Fraction(-1, big), Fraction(big)]

    def test_product_of_many_linear_factors(self):
        def times_linear(p, a):
            """p(t) * (t - a), coefficients ascending."""
            shifted = [Fraction(0)] + p
            return [c - a * x for c, x in zip(shifted, p + [Fraction(0)])]

        poly = [Fraction(1)]
        for a in [2, -7, 13, Fraction(5, 3)]:
            poly = times_linear(poly, a)
        roots, split = linalg.rational_roots(linalg.poly_int(poly))
        assert split
        assert roots == sorted([Fraction(-7), Fraction(5, 3), Fraction(2), Fraction(13)])

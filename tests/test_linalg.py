import math
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
        assert not any(linalg.residue([3, 2, 5], ech, piv))
        assert any(linalg.residue([0, 0, 1], ech, piv))

    def test_solve_coords(self):
        coords = linalg.solve_coords([[1, 0, 1], [0, 1, 1]], [2, 3, 5])
        assert coords == (1, [2, 3])
        assert linalg.solve_coords([[1, 0, 1], [0, 1, 1]], [2, 3, 4]) is None


# -- Fraction references for the integer normal forms -------------------------


def _ref_rref(rows, ncols):
    """Reduced row echelon form in Fractions: (rows with pivot 1, pivot columns)."""
    work = [[Fraction(x) for x in r] for r in rows]
    out, pivots = [], []
    for col in range(ncols):
        src = next((r for r in work if r[col] != 0), None)
        if src is None:
            continue
        work.remove(src)
        src = [x / src[col] for x in src]
        work = [[x - r[col] * y for x, y in zip(r, src)] for r in work]
        out = [[x - r[col] * y for x, y in zip(r, src)] for r in out]
        out.append(src)
        pivots.append(col)
    return out, pivots


def _ref_nullspace(rows, ncols):
    """(free columns, one rational kernel vector per free column, equal to 1 there)."""
    rref, pivots = _ref_rref(rows, ncols)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for r, col in zip(rref, pivots):
            x[col] = -r[f]
        basis.append(x)
    return free, basis


def _ref_coords(basis_rows, v):
    """Rational c with sum c_i * basis_rows[i] = v, or None; rows independent."""
    k = len(basis_rows)
    aug = [[b[j] for b in basis_rows] + [x] for j, x in enumerate(v)]
    rref, pivots = _ref_rref(aug, k + 1)
    if k in pivots:
        return None
    coords = [Fraction(0)] * k
    for r, col in zip(rref, pivots):
        coords[col] = r[k]
    return coords


def _random_matrices(seed):
    """Integer and rational matrices: full rank, rank-deficient, all-zero, empty."""
    rng = random.Random(seed)
    out = []
    for _ in range(40):
        m, n = rng.randint(1, 6), rng.randint(1, 7)
        entry = (lambda: rng.randint(-6, 6)) if rng.random() < 0.5 else (
            lambda: Fraction(rng.randint(-6, 6), rng.randint(1, 5)))
        if rng.random() < 0.5:
            rows = [[entry() for _ in range(n)] for _ in range(m)]
        else:  # rank at most k, as a product of an m x k and a k x n factor
            k = rng.randint(1, max(1, min(m, n) - 1))
            a = [[entry() for _ in range(k)] for _ in range(m)]
            b = [[entry() for _ in range(n)] for _ in range(k)]
            rows = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)]
                    for i in range(m)]
        out.append((rows, n))
    out += [([[0] * 4 for _ in range(3)], 4), ([], 3), ([], 1), ([[0]], 1)]
    return out


class TestIntegerNormalForms:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_nullspace_is_the_primitive_form_of_the_reference(self, seed):
        for rows, n in _random_matrices(seed):
            got = linalg.nullspace(rows, ncols=n)
            free, ref = _ref_nullspace(rows, n)
            assert len(got) == len(ref)
            for v, r, f in zip(got, ref, free):
                assert all(isinstance(x, int) for x in v)
                assert math.gcd(*v) == 1
                assert v[f] > 0
                assert all(v[g] == 0 for g in free if g != f)
                assert [Fraction(x, v[f]) for x in v] == r
                assert all(sum(Fraction(a) * x for a, x in zip(row, v)) == 0 for row in rows)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_solve_coords_is_the_least_denominator_form_of_the_reference(self, seed):
        rng = random.Random(100 + seed)
        for rows, n in _random_matrices(seed):
            basis = [[Fraction(x) for x in r] for r in linalg.echelon(rows)[0]]
            # a unitriangular change of basis, so that the rows are not in echelon form
            basis = [[b0[j] + sum(rng.randint(-2, 2) * b[j] for b in basis[i + 1:])
                      for j in range(n)] for i, b0 in enumerate(basis)]
            want = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in basis]
            v = [sum(c * b[j] for c, b in zip(want, basis)) for j in range(n)]
            outside = [x + rng.randint(-1, 1) for x in v]
            for target in (v, outside):
                ref = _ref_coords(basis, target)
                got = linalg.solve_coords(basis, target)
                if ref is None:
                    assert got is None
                    continue
                den, nums = got
                assert den == math.lcm(*(c.denominator for c in ref))
                assert nums == [c * den for c in ref]
            assert _ref_coords(basis, v) == want

    def test_solve_coords_inconsistent_and_empty(self):
        assert linalg.solve_coords([[2, 0, 0], [0, 3, 0]], [1, 1, 1]) is None
        assert linalg.solve_coords([[2, 0, 0], [0, 3, 0]], [1, 1, 0]) == (6, [3, 2])
        assert linalg.solve_coords([], [0, 0]) == (1, [])
        assert linalg.solve_coords([], [0, 1]) is None


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

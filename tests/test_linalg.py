import math
import random
from fractions import Fraction

import pytest

from blocksieve import linalg

from conftest import poly_int, rank, solve_coords, squarefree_part


class TestEchelon:
    def test_known_matrix(self):
        ech, pivots = linalg.echelon([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
        assert pivots == [0, 1]
        assert ech == [[1, 0, 1], [0, 1, 1]]

    def test_rational_rows_are_scaled(self):
        rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]]
        assert rank(rows) == 1

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
            assert rank(m) <= k

    def test_empty(self):
        assert linalg.echelon([]) == ([], [])
        assert rank([[0, 0], [0, 0]]) == 0


class TestNullspace:
    def test_kernel_vectors_annihilate(self):
        rng = random.Random(3)
        for _ in range(30):
            rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(3)]
            for v in linalg.nullspace(*linalg.echelon(rows), 5):
                assert all(sum(r[j] * v[j] for j in range(5)) == 0 for r in rows)

    def test_dimension_formula(self):
        rows = [[1, 2, 3], [2, 4, 6]]
        assert len(linalg.nullspace(*linalg.echelon(rows), 3)) == 3 - rank(rows)

    def test_empty_matrix_gives_identity(self):
        assert linalg.nullspace([], [], 2) == [[1, 0], [0, 1]]


class TestMembership:
    def test_in_span(self):
        ech, piv = linalg.echelon([[1, 0, 1], [0, 1, 1]])
        assert not any(linalg.residue([3, 2, 5], ech, piv))
        assert any(linalg.residue([0, 0, 1], ech, piv))

    def test_solve_coords(self):
        coords = solve_coords([[1, 0, 1], [0, 1, 1]], [2, 3, 5])
        assert coords == (1, [2, 3])
        assert solve_coords([[1, 0, 1], [0, 1, 1]], [2, 3, 4]) is None


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
            got = linalg.nullspace(*linalg.echelon(rows), n)
            free, ref = _ref_nullspace(rows, n)
            assert len(got) == len(ref)
            for v, r, f in zip(got, ref, free):
                assert all(isinstance(x, int) for x in v)
                assert math.gcd(*v) == 1
                assert v[f] > 0
                assert all(v[g] == 0 for g in free if g != f)
                # f is v's own coordinate and its last nonzero one
                assert not any(v[f + 1:])
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
                got = solve_coords(basis, target)
                if ref is None:
                    assert got is None
                    continue
                den, nums = got
                assert den == math.lcm(*(c.denominator for c in ref))
                assert nums == [c * den for c in ref]
            assert _ref_coords(basis, v) == want

    def test_solve_coords_inconsistent_and_empty(self):
        assert solve_coords([[2, 0, 0], [0, 3, 0]], [1, 1, 1]) is None
        assert solve_coords([[2, 0, 0], [0, 3, 0]], [1, 1, 0]) == (6, [3, 2])
        assert solve_coords([], [0, 0]) == (1, [])
        assert solve_coords([], [0, 1]) is None


def _primitive_ref(rows, ncols):
    """_ref_rref with each row scaled to a primitive integer row, and its pivots."""
    rref, pivots = _ref_rref(rows, ncols)
    out = []
    for r in rref:
        den = math.lcm(*(x.denominator for x in r))
        ints = [int(x * den) for x in r]
        g = math.gcd(*ints)
        out.append([x // g for x in ints])
    return out, pivots


def _product_like(seed):
    """Many rows of rank at most 3, as products give: repeats, zeros and Fractions."""
    rng = random.Random(seed)
    out = []
    for _ in range(10):
        n, k = rng.randint(4, 9), rng.randint(1, 3)
        gens = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        rows = []
        for _ in range(rng.randint(40, 60)):
            roll = rng.random()
            if roll < 0.2:
                rows.append([0] * n)
            elif roll < 0.4 and rows:
                rows.append(list(rng.choice(rows)))
            else:
                cs = [rng.randint(-2, 2) for _ in gens]
                row = [sum(c * g[j] for c, g in zip(cs, gens)) for j in range(n)]
                if rng.random() < 0.3:
                    den = rng.randint(2, 5)
                    row = [Fraction(x, den) for x in row]
                rows.append(row)
        out.append((rows, n))
    return out


class TestOneElimination:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_echelon_is_the_primitive_form_of_the_reference(self, seed):
        for rows, n in _random_matrices(seed) + _product_like(seed):
            assert linalg.echelon(rows) == _primitive_ref(rows, n)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_echelon_does_not_depend_on_row_order(self, seed):
        rng = random.Random(200 + seed)
        for rows, _n in _random_matrices(seed) + _product_like(seed):
            shuffled = list(rows)
            rng.shuffle(shuffled)
            assert linalg.echelon(shuffled) == linalg.echelon(rows)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_reduced_extend_echelon_rows_are_echelon(self, seed):
        for rows, _n in _random_matrices(seed) + _product_like(seed):
            ints = [linalg.integral(r)[1] for r in rows]
            ech, pivots = [], []
            for v in ints:
                linalg.extend_echelon(ech, pivots, v)
            built = ([list(r) for r in ech], list(pivots))
            assert linalg.reduced(ech, pivots) == linalg.echelon(rows)
            assert (ech, pivots) == built


class TestRationalRoots:
    @pytest.mark.parametrize(
        "poly,roots,split",
        [
            ([2, -3, 1], [1, 2], True),              # (t-1)(t-2)
            ([-2, 0, 1], [], False),                 # t^2 - 2
            ([-15, 7, 2], [-5, Fraction(3, 2)], True),
            ([0, -1, 1], [0, 1], True),              # t(t-1)
            ([6, 11, 6, 1], [-3, -2, -1], True),
            ([1, 0, 1], [], False),                  # t^2 + 1
            ([-1, 0, 0, 1], [1], False),             # t^3 - 1
            ([-1, 1], [1], True),                    # t-1
            ([0, 3, 1], [-3, 0], True),              # t(t+3), a zero root
            ([0, -4], [0], True),                    # -4t
            ([-6, 5, -1], [2, 3], True),             # -(t-2)(t-3)
        ],
    )
    def test_table(self, poly, roots, split):
        got_roots, got_split = linalg.rational_roots(poly)
        assert got_roots == [Fraction(x) for x in roots]
        assert got_split is split

    @pytest.mark.parametrize(
        "poly",
        [
            [0, 1, -2, 1],                           # t(t-1)^2
            [1, -2, 1],                              # (t-1)^2
            [0, 0, -4],                              # -4t^2
            [20, -16, 1, 1],                         # (t-2)^2 (t+5)
            [0, 0, -3, 6],                           # 3t^2 (2t-1)
            # ((t^2-2)(t^2-3)(t^2-6))^2: 2, 3 or 6 is a square modulo every
            # odd prime, so every prime repeats a root and only the
            # resultant bound ends the search
            [1296, 0, -2592, 0, 2088, 0, -864, 0, 193, 0, -22, 0, 1],
        ],
    )
    def test_root_repeated_modulo_every_prime_is_refused(self, poly):
        with pytest.raises(ValueError, match="not squarefree"):
            linalg.rational_roots(poly)

    def test_repeated_irrational_factor_keeps_its_answer(self):
        # (t^2+1)^2: any prime 3 mod 4 leaves it without roots, so the
        # search ends there, and it has no rational root
        assert linalg.rational_roots([1, 0, 2, 0, 1]) == ([], False)

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
        roots, split = linalg.rational_roots(poly_int(poly))
        assert split
        assert roots == sorted([Fraction(-7), Fraction(5, 3), Fraction(2), Fraction(13)])

    def test_split_polynomial_of_degree_200(self):
        # every odd prime below 200 repeats a root of prod (t - k), so the
        # Hensel prime has to come from past any fixed small-prime list
        poly = [1]
        for k in range(1, 201):
            poly = [hi - k * lo for lo, hi in zip(poly + [0], [0] + poly)]
        roots, split = linalg.rational_roots(poly)
        assert split
        assert roots == [Fraction(k) for k in range(1, 201)]

    def test_every_small_quadratic_against_a_brute_force_search(self):
        # a root p/q in lowest terms of a*t^2 + b*t + c has p | c and q | a
        # when c != 0, and is 0 or -b/a when c == 0, so |p| <= 12 and
        # q <= 12 for coefficients in [-12, 12]; each candidate x and each
        # (a, b) fix the one c that makes x a root
        span = range(-12, 13)
        roots: dict[tuple[int, int, int], set] = {}
        for x in {Fraction(p, q) for p in span for q in range(1, 13)}:
            p, q = x.numerator, x.denominator
            for a in span:
                for b in span:
                    c, rem = divmod(-(a * p * p + b * p * q), q * q)
                    if a and not rem and -12 <= c <= 12:
                        roots.setdefault((a, b, c), set()).add(x)
        split = 0
        for a in span:
            for b in span:
                for c in span:
                    if a and b * b == 4 * a * c:  # a double root
                        with pytest.raises(ValueError):
                            linalg.rational_roots([c, b, a])
                    elif a:
                        want = sorted(roots.get((a, b, c), ()))
                        assert linalg.rational_roots([c, b, a]) == (want, bool(want)), (a, b, c)
                        split += bool(want)
        assert 0 < split < 24 * 25 * 25


# -- Fraction reference for rational_roots -------------------------------------
#
# The root finder as it stood with a Fraction squarefree part and a fixed
# list of small Hensel primes.  It takes repeated factors too, and on the
# squarefree parts generated below it agrees with the integer version, since
# one of those primes works for each of them.

_REF_PRIMES = [
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
    73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
]


def _ref_eval_mod(p, x, m):
    acc = 0
    for c in reversed(p):
        acc = (acc * x + c) % m
    return acc


def _ref_reconstruct(a, m, bound):
    r0, r1 = m, a % m
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    p, q = r1, s1
    if q == 0:
        return None
    if q < 0:
        p, q = -p, -q
    if q > bound or math.gcd(p, q) != 1:
        return None
    return p, q


def _ref_rational_roots(p):
    p = [int(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    if len(p) == 1:
        return [], True
    sqfree = squarefree_part(p)
    zero_roots = []
    if sqfree[0] == 0:
        zero_roots.append(Fraction(0))
        k = 1
        while sqfree[k] == 0:
            k += 1
        sqfree = sqfree[k:]
    deg = len(sqfree) - 1
    if deg == 0:
        return zero_roots, True
    if deg == 1:
        return sorted(zero_roots + [Fraction(-sqfree[0], sqfree[1])]), True
    bound = abs(sqfree[-1]) + max(abs(c) for c in sqfree)
    prime = None
    for cand in _REF_PRIMES:
        if sqfree[-1] % cand == 0:
            continue
        dp = [(i * sqfree[i]) % cand for i in range(1, len(sqfree))]
        if all(_ref_eval_mod(sqfree, x, cand) != 0 or _ref_eval_mod(dp, x, cand) != 0
               for x in range(cand)):
            prime = cand
            break
    if prime is None:
        raise ArithmeticError("no small prime keeps the polynomial squarefree")
    target = 2 * bound * bound + 1
    dp_int = [i * sqfree[i] for i in range(1, len(sqfree))]
    found = []
    for x in [x for x in range(prime) if _ref_eval_mod(sqfree, x, prime) == 0]:
        m = prime
        while m < target:
            m_next = m * m
            inv = pow(_ref_eval_mod(dp_int, x, m_next), -1, m_next)
            x = (x - _ref_eval_mod(sqfree, x, m_next) * inv) % m_next
            m = m_next
        rec = _ref_reconstruct(x, m, bound)
        if rec is None:
            continue
        num, den = rec
        if sum(c * num**i * den ** (deg - i) for i, c in enumerate(sqfree)) == 0:
            found.append(Fraction(num, den))
    found = sorted(set(found))
    return sorted(zero_roots + found), len(found) == deg


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _random_factored_polynomial(rng):
    """A product of (q*t - p) factors with multiplicities, maybe t^k, quadratics and content."""
    poly = [rng.choice([1, -1]) * rng.randint(1, 6)]  # content > 1, either sign
    for _ in range(rng.randint(0, 6)):
        num, den = rng.randint(-12, 12), rng.randint(1, 4)
        g = math.gcd(num, den)
        for _ in range(rng.randint(1, 3)):
            poly = _poly_mul(poly, [-num // g, den // g])
    if rng.random() < 0.3:
        poly = [0] * rng.randint(1, 3) + poly
    for _ in range(rng.choice([0, 0, 1, 2])):
        # t^2 + a with a > 0, or t^2 - a for a non-square a
        a = rng.choice([1, 2, 3, 5, 7])
        quad = [a, 0, 1] if rng.random() < 0.5 else [-a - (a == 1), 0, 1]
        scale = rng.randint(1, 3)
        poly = _poly_mul(poly, [scale * c for c in quad])
    return poly


def _has_repeated_rational_root(poly, roots):
    """Whether p'(x) = 0 at one of the rational roots x of p."""
    deriv = [i * c for i, c in enumerate(poly)][1:]
    return any(sum(c * x**i for i, c in enumerate(deriv)) == 0 for x in roots)


class TestRationalRootsAgainstFractionReference:
    def test_two_hundred_seeded_products(self):
        rng = random.Random(8)
        refused = 0
        for _ in range(200):
            poly = _random_factored_polynomial(rng)
            want = _ref_rational_roots(poly)
            assert linalg.rational_roots(squarefree_part(poly)) == want, poly
            try:
                got = linalg.rational_roots(poly)
            except ValueError:
                refused += 1
                continue
            assert got == want, poly
            assert not _has_repeated_rational_root(poly, want[0]), poly
        assert 0 < refused < 200

import json
import random
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction

import pytest

import blocksieve.coalgebra
from blocksieve.coalgebra import (
    Coalgebra,
    CoalgebraParseError,
    _coefficient,
    _frac_str,
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
    write_corpus,
)

from blocksieve.linalg import integral

from conftest import coassociativity_failure, random_change_of_basis

# the one message for a constant that is not an exact rational, from any caller
INEXACT = "coefficients must be exact rationals (integers, Fractions or 'p/q' strings), got "

def _ref_validate(c: Coalgebra) -> list[str]:
    """Reference: coassociativity on integer-scaled delta, the counit law in Fractions.

    This is the checker the integer counit law replaced; it compares two
    tuple-keyed dicts per basis vector and never scales the counit.
    """
    n = c.dim
    den, scaled = integral([x for (_i, _j, _k, x) in c.delta])
    rows = [[] for _ in range(n)]
    for (i, j, k, _x), x in zip(c.delta, scaled):
        rows[i].append((j, k, x))
    failures = []
    for i in range(n):
        lhs, rhs = {}, {}
        for j, k, x in rows[i]:
            for a, b, y in rows[j]:
                lhs[(a, b, k)] = lhs.get((a, b, k), 0) + x * y
            for u, v, y in rows[k]:
                rhs[(j, u, v)] = rhs.get((j, u, v), 0) + x * y
        if any(lhs.get(t, 0) != rhs.get(t, 0) for t in lhs.keys() | rhs.keys()):
            failures.append(f"coassociativity fails at basis index {i} ({c.basis[i]})")
            break
    for i in range(n):
        left, right = [0] * n, [0] * n
        for j, k, x in rows[i]:
            left[k] += x * c.counit[j]
            right[j] += x * c.counit[k]
        want = [den if t == i else 0 for t in range(n)]
        if left != want or right != want:
            failures.append(f"counit law fails at basis index {i} ({c.basis[i]})")
            break
    return failures


def _perturbed_constant(c: Coalgebra, rng: random.Random) -> Coalgebra | None:
    """c with one delta constant shifted by a random p/q; None if it would vanish."""
    delta = list(c.delta)
    t = rng.randrange(len(delta))
    i, j, k, x = delta[t]
    x += Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 4))
    if x == 0:
        return None
    delta[t] = (i, j, k, x)
    return Coalgebra(c.dim, c.basis, tuple(delta), c.counit)


def _perturbed_counit(c: Coalgebra, rng: random.Random) -> Coalgebra:
    """c with one counit entry shifted by a random p/q."""
    counit = list(c.counit)
    counit[rng.randrange(c.dim)] += Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 4))
    return Coalgebra(c.dim, c.basis, c.delta, tuple(counit))


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

    def test_missing_diagonal_counit_term_reported(self):
        # Delta x = x (x) x with eps(x) = 0: every term of Delta x is on the
        # diagonal, and (eps (x) id) Delta x = 0 lacks the x that the law
        # needs, with no stray term elsewhere to give the failure away
        delta = ((0, 0, 0, Fraction(1)), (1, 1, 1, Fraction(1)))
        c = Coalgebra(2, ("1", "x"), delta, (Fraction(1), Fraction(0)))
        assert validate(c) == ["counit law fails at basis index 1 (x)"]
        assert validate(c) == _ref_validate(c)

    def test_cancelling_counit_terms_pass(self):
        # Delta x = x (x) 1 + 1 (x) x + (g - g') (x) (g - g') with eps(g) =
        # eps(g') = 1: the last four terms leave zero entries at g and g' on
        # both sides, which must not count as failures
        delta = (
            (0, 0, 0, Fraction(1)), (1, 1, 1, Fraction(1)), (2, 2, 2, Fraction(1)),
            (3, 3, 0, Fraction(1)), (3, 0, 3, Fraction(1)),
            (3, 1, 1, Fraction(1)), (3, 1, 2, Fraction(-1)),
            (3, 2, 1, Fraction(-1)), (3, 2, 2, Fraction(1)),
        )
        c = Coalgebra(4, ("1", "g", "g'", "x"), delta,
                      (Fraction(1), Fraction(1), Fraction(1), Fraction(0)))
        assert validate(c) == _ref_validate(c)
        assert not any(m.startswith("counit") for m in validate(c))

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

    def test_matches_fraction_counit_reference(self):
        rng = random.Random(31)
        cases = []
        for build in CORPUS_BUILDERS.values():
            c = build()
            cases.append(c)
            for _ in range(2):
                cases.append(change_basis(c, random_change_of_basis(rng, c.dim)))
        # a counit with denominators, so that its scale E exceeds 1
        half = Fraction(1, 2)
        c = change_basis(sweedler_coalgebra(), [[half, 0, 0, 0], [0, Fraction(2, 3), 0, 0],
                                                [0, 0, 1, half], [0, 0, 0, 1]])
        assert integral(c.counit)[0] == 6
        cases.append(c)
        variants = []
        for c in cases:
            variants.append(c)
            for _ in range(2):
                variants.append(_perturbed_counit(c, rng))
                broken = _perturbed_constant(c, rng)
                if broken is not None:
                    variants.append(broken)
        failing = 0
        for c in variants:
            got = validate(c)
            assert got == _ref_validate(c), c
            failing += bool(got)
        assert failing >= len(variants) // 2
        assert failing < len(variants)


def _packed_failure(c: Coalgebra) -> int | None:
    """The first failing index validate reports for coassociativity, or None."""
    prefix = "coassociativity fails at basis index "
    for msg in validate(c):
        if msg.startswith(prefix):
            return int(msg[len(prefix):].split()[0])
    return None


def _with_constant(c: Coalgebra, t: int, x) -> Coalgebra:
    """c with its t-th delta constant replaced by x (the entry dropped when x is 0)."""
    delta = list(c.delta)
    i, j, k, _x = delta[t]
    if x:
        delta[t] = (i, j, k, Fraction(x))
    else:
        del delta[t]
    return Coalgebra(c.dim, c.basis, tuple(delta), c.counit)


def _raw(n: int, entries) -> Coalgebra:
    """A dim-n table from (i, j, k, x) entries; the counit is irrelevant here."""
    return Coalgebra(n, tuple(f"e{i}" for i in range(n)),
                     tuple((i, j, k, Fraction(x)) for i, j, k, x in entries),
                     (Fraction(1),) * n)


def _sample_cases(rng: random.Random) -> list[Coalgebra]:
    """Corpus builders, two tensor products and seeded random bases of each."""
    cases = [build() for build in CORPUS_BUILDERS.values()]
    cases.append(tensor_product(sweedler_coalgebra(), grouplike_coalgebra(3)))
    cases.append(tensor_product(matrix_coalgebra(2), sweedler_coalgebra()))
    for c in list(cases):
        if c.dim <= 9:
            cases.append(change_basis(c, random_change_of_basis(rng, c.dim)))
    return cases


class TestPackedCoassociativity:
    """validate's packed slices against the unpacked triple-keyed reference."""

    def test_valid_inputs_agree(self):
        cases = _sample_cases(random.Random(5))
        assert len(cases) >= 12
        for c in cases:
            assert coassociativity_failure(c) is None
            assert _packed_failure(c) is None

    def test_unit_mutations_at_every_row(self):
        rng = random.Random(6)
        mutants = failing = 0
        for c in _sample_cases(rng):
            rows: dict[int, list[int]] = {}
            for t, (i, *_rest) in enumerate(c.delta):
                rows.setdefault(i, []).append(t)
            for ts in rows.values():
                for t in (ts[0], ts[-1], rng.choice(ts)):
                    for step in (1, -1):
                        m = _with_constant(c, t, c.delta[t][3] + step)
                        got = _packed_failure(m)
                        assert got == coassociativity_failure(m), (c.basis, t)
                        mutants += 1
                        failing += got is not None
        assert mutants > 400
        assert failing > mutants // 2

    def test_constants_beyond_2_to_80(self):
        # f_0 = 2^-90 * e_0 makes Delta(f_0) = 2^90 f_0 (x) f_0; shears then mix
        # the huge constant into the others
        rng = random.Random(7)
        for build in (sweedler_coalgebra, s3_dual_coalgebra, lambda: grouplike_coalgebra(4)):
            base = build()
            P = random_change_of_basis(rng, base.dim)
            P[0] = [x / 2**90 for x in P[0]]
            c = change_basis(base, P)
            assert max(abs(x) for *_t, x in c.delta) >= 2**80
            assert _packed_failure(c) is None
            for t in rng.sample(range(len(c.delta)), min(12, len(c.delta))):
                for step in (1, -1):
                    m = _with_constant(c, t, c.delta[t][3] + step)
                    assert _packed_failure(m) == coassociativity_failure(m) is not None

    def test_digit_sums_reach_n_times_max_squared(self):
        n, x = 16, 3**20
        # every constant x: each digit is n * x^2 on both sides, and they cancel
        full = _raw(n, [(i, j, k, x) for i in range(n) for j in range(n) for k in range(n)])
        assert coassociativity_failure(full) is None
        assert _packed_failure(full) is None
        # at e_0, digit (0, 0, 0) is n * x^2 on the left and -(n - 2) * x^2 on the right
        entries = {(j, 0, 0): x for j in range(n)}
        entries.update({(0, j, 0): x for j in range(n)})
        entries.update({(0, 0, k): -x for k in range(1, n)})
        skew = _raw(n, [(i, j, k, y) for (i, j, k), y in entries.items()])
        assert coassociativity_failure(skew) == 0
        assert _packed_failure(skew) == 0
        # one unit off in the same table still fails at the same index
        t = next(t for t, e in enumerate(skew.delta) if e[:3] == (5, 0, 0))
        assert _packed_failure(_with_constant(skew, t, x + 1)) == 0

    def test_digits_a_narrower_base_would_carry_into_each_other(self):
        # at e_0 the only nonzero digits sit at (a, b) = (1, 1): m * y^2 at c = 3
        # (from rows j in J) and -1 at c = 4 (from row 15); rows 3 and 4 are
        # empty, so the other side is 0.  With base 2^v and m * y^2 = 2^v the
        # packed value would cancel; the true base is wider, so it must not
        n = 16
        rows_j = [1, 2, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14]
        for t in range(0, 24):
            y = 2**t
            for m in (1, 2, 3, 4, 8, 12):
                entries = [(j, 1, 1, y) for j in rows_j[:m]] + [(15, 1, 1, 1)]
                entries += [(0, j, 3, y) for j in rows_j[:m]] + [(0, 15, 4, -1)]
                c = _raw(n, entries)
                assert coassociativity_failure(c) == 0
                assert _packed_failure(c) == 0, (t, m)


def _is_associative(a) -> bool:
    """Dense reference: (e_i e_j) e_k == e_i (e_j e_k) for every basis triple."""
    basis = [[Fraction(int(t == i)) for t in range(a.dim)] for i in range(a.dim)]
    return all(
        a.multiply(a.multiply(x, y), z) == a.multiply(x, a.multiply(y, z))
        for x in basis for y in basis for z in basis
    )


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
        assert _is_associative(a)

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
            assert _is_associative(dual_algebra(c))
            c2 = change_basis(c, random_change_of_basis(rng, c.dim))
            assert _is_associative(dual_algebra(c2))

    def test_constants_are_delta_read_backwards(self):
        # the stored constants are ints, D times delta's, D = lcm of its denominators
        coalgebras = _corpus_and_moved(13)
        assert sum(c.integral_delta[0] > 1 for c in coalgebras) >= 6
        for c in coalgebras:
            a = dual_algebra(c)
            den = integral([x for (_i, _j, _k, x) in c.delta])[0]
            stored = [x for row in a.mult for terms in row.values() for _i, x in terms]
            assert len(stored) == len(c.delta)
            assert all(type(x) is int and x != 0 for x in stored)
            expected = {}
            for (i, j, k, x) in c.delta:
                expected.setdefault((j, k), [Fraction(0)] * c.dim)[i] += den * x
            for j in range(c.dim):
                for k in range(c.dim):
                    e_j = [int(t == j) for t in range(c.dim)]
                    e_k = [int(t == k) for t in range(c.dim)]
                    assert a.multiply(e_j, e_k) == expected.get(
                        (j, k), [Fraction(0)] * c.dim
                    )

    def test_unit_is_counit(self):
        # the counit over D, which is the unit of the product D * (x * y)
        for c in _corpus_and_moved(14):
            a = dual_algebra(c)
            den = integral([x for (_i, _j, _k, x) in c.delta])[0]
            assert a.unit == tuple(x / den for x in c.counit)
            for k in range(c.dim):
                e_k = [int(t == k) for t in range(c.dim)]
                assert a.multiply(a.unit, e_k) == e_k == a.multiply(e_k, a.unit)


def _corpus_and_moved(seed: int) -> list[Coalgebra]:
    """The corpus, then each corpus coalgebra in two seeded random bases (fractional constants)."""
    rng = random.Random(seed)
    corpus = [build() for _name, build in sorted(CORPUS_BUILDERS.items())]
    return corpus + [change_basis(c, random_change_of_basis(rng, c.dim))
                     for c in corpus for _ in range(2)]


def _ref_tensor_product(c1: Coalgebra, c2: Coalgebra) -> Coalgebra:
    """Reference: Delta(e_i1 (x) e_i2) accumulated per index pair in Fractions, zeros dropped."""
    n1, n2 = c1.dim, c2.dim
    rows1 = [{(j, k): x for (i, j, k, x) in c1.delta if i == i1} for i1 in range(n1)]
    rows2 = [{(j, k): x for (i, j, k, x) in c2.delta if i == i2} for i2 in range(n2)]
    delta = []
    for i1 in range(n1):
        for i2 in range(n2):
            acc = {}
            for (j1, k1), a in rows1[i1].items():
                for (j2, k2), b in rows2[i2].items():
                    key = (j1 * n2 + j2, k1 * n2 + k2)
                    acc[key] = acc.get(key, Fraction(0)) + a * b
            delta += [(i1 * n2 + i2, j, k, v) for (j, k), v in acc.items() if v]
    counit = tuple(c1.counit[i1] * c2.counit[i2] for i1 in range(n1) for i2 in range(n2))
    basis = tuple(f"{a}⊗{b}" for a in c1.basis for b in c2.basis)
    return Coalgebra(n1 * n2, basis, tuple(delta), counit)


class TestTensorProduct:
    def test_dimensions_and_validity(self):
        ts = sweedler_tensor_square()
        assert ts.dim == 16
        assert validate(ts) == []

    def test_grouplike_times_grouplike(self):
        c = tensor_product(grouplike_coalgebra(2), grouplike_coalgebra(3))
        assert c.dim == 6
        assert validate(c) == []

    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_fraction_reference(self, seed):
        # corpus coalgebras of dimension <= 6, in the standard and in seeded
        # random bases, so that the constants are fractions
        rng = random.Random(seed)
        small = [build() for _name, build in sorted(CORPUS_BUILDERS.items())
                 if build().dim <= 6]
        cases = small + [change_basis(c, random_change_of_basis(rng, c.dim)) for c in small]
        for c1 in cases:
            for c2 in rng.sample(cases, 4):
                got = tensor_product(c1, c2)
                assert got == _ref_tensor_product(c1, c2)
                assert validate(got) == []


def _ref_inverse(P):
    """Gauss-Jordan inverse in Fractions, or None when P is singular."""
    n = len(P)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(P)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def _ref_change_basis(c, P, Q):
    """f_i = sum_j P[i][j] e_j with Q = P^-1, so that e_k = sum_a Q[k][a] f_a."""
    n = c.dim
    acc = {}
    for (j, k, l, x) in c.delta:
        for i in range(n):
            for a in range(n):
                for b in range(n):
                    w = P[i][j] * x * Q[k][a] * Q[l][b]
                    if w:
                        acc[(i, a, b)] = acc.get((i, a, b), 0) + w
    delta = tuple((i, a, b, v) for (i, a, b), v in acc.items() if v)
    counit = tuple(sum(P[i][j] * c.counit[j] for j in range(n)) for i in range(n))
    return Coalgebra(n, tuple(f"f{i}" for i in range(n)), delta, counit)


class TestChangeBasis:
    def test_inverse_matches_fraction_reference(self):
        rng = random.Random(29)
        cases = [build() for build in CORPUS_BUILDERS.values()
                 if build().dim <= 6] + [grouplike_coalgebra(1)]
        for c in cases:
            n = c.dim
            dense = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                     for _ in range(n)]
            for P in (random_change_of_basis(rng, n), dense):
                Q = _ref_inverse(P)
                if Q is None:
                    with pytest.raises(ValueError, match="singular"):
                        change_basis(c, P)
                    continue
                identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
                assert [[sum(P[i][t] * Q[t][j] for t in range(n)) for j in range(n)]
                        for i in range(n)] == identity
                moved = change_basis(c, P)
                assert moved == _ref_change_basis(c, P, Q)
                back = change_basis(moved, Q)
                assert (back.delta, back.counit) == (c.delta, c.counit)

    @pytest.mark.parametrize("P, message", [
        ([[0.1]], f"change-of-basis entry (0,0): {INEXACT}float"),
        ([[True]], f"change-of-basis entry (0,0): {INEXACT}bool"),
    ])
    def test_rejects_inexact_entries(self, P, message):
        with pytest.raises(ValueError) as info:
            change_basis(grouplike_coalgebra(1), P)
        assert str(info.value) == message

    def test_rejects_rank_deficient_rational_matrix(self):
        c = sweedler_coalgebra()
        half = Fraction(1, 2)
        P = [[1, half, 0, 0], [0, 1, 3, 0], [1, Fraction(5, 2), 6, 0], [0, 0, 0, 1]]
        assert _ref_inverse(P) is None  # row 2 = row 0 + 2 * row 1
        with pytest.raises(ValueError, match="singular"):
            change_basis(c, P)
        with pytest.raises(ValueError, match="singular"):
            change_basis(c, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]])

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

    def test_corpus_directory_is_write_corpus_output(self, corpus_dir, tmp_path):
        written = write_corpus(tmp_path)
        assert sorted(p.name for p in corpus_dir.iterdir()) == sorted(p.name for p in written)
        for path in written:
            assert (corpus_dir / path.name).read_bytes() == path.read_bytes(), path.name

    def test_rejects_unknown_fields(self):
        with pytest.raises(CoalgebraParseError, match="unknown"):
            parse_coalgebra('{"dim": 1, "basis": ["g"], "delta": [[0,0,0,"1"]], '
                            '"counit": ["1"], "field": "Q", "extra": 0}')

    def test_rejects_other_fields_value(self):
        with pytest.raises(CoalgebraParseError, match="field"):
            parse_coalgebra('{"dim": 1, "basis": ["g"], "delta": [[0,0,0,"1"]], '
                            '"counit": ["1"], "field": "R"}')

    def test_rejects_bytes_that_are_not_utf8(self):
        # the JSON-document check parse_block_system also uses decodes first
        with pytest.raises(CoalgebraParseError, match="^not valid JSON: 'utf-8' codec"):
            parse_coalgebra(b'{"dim": 1, "basis": ["\xff"], "delta": [[0,0,0,"1"]], '
                            b'"counit": ["1"], "field": "Q"}')

    def test_rejects_float_coefficients(self):
        with pytest.raises(CoalgebraParseError, match="must be exact rationals"):
            parse_coalgebra('{"dim": 1, "basis": ["g"], "delta": [[0,0,0,0.5]], '
                            '"counit": ["1"], "field": "Q"}')

    def test_rejects_malformed_rational_string(self):
        with pytest.raises(CoalgebraParseError, match="bad rational"):
            parse_coalgebra('{"dim": 1, "basis": ["g"], "delta": [[0,0,0,"x/y"]], '
                            '"counit": ["1"], "field": "Q"}')

    def test_rational_strings_give_what_fraction_gives(self):
        # canonical strings skip Fraction's regex; every string, canonical or
        # not, must give the Fraction or the error message Fraction(text) gives
        texts = ["3/4", "-3/4", "+3/4", " 3/4 ", "--3", "3/-4", "3/0", "1.5", "1e3",
                 "3_0/4", "\u0663/4", "", "/", "1/", "/2", "-", "-0", "12/-0", "-12/18",
                 "007", "1" * 5000]

        def outcome(parse):
            try:
                x = parse()
            except ValueError as exc:
                return "error", str(exc)
            return type(x), x

        def reference(text):
            try:
                return Fraction(text)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"delta[0]: bad rational {text!r}: {exc}") from exc

        for text in texts:
            assert outcome(lambda: _coefficient(text, "delta[0]")) == outcome(
                lambda: reference(text))
        assert _coefficient("-12/18", "w") == Fraction(-2, 3)
        assert "bad rational" in outcome(lambda: _coefficient("--3", "w"))[1]

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


def _doc(delta, counit=None, dim=2) -> str:
    """Coalgebra JSON with the given delta (a JSON fragment) on basis e0, e1."""
    counit = counit or '["1", "1"]'
    basis = json.dumps([f"e{i}" for i in range(dim)])
    return (f'{{"dim": {dim}, "basis": {basis}, "delta": {delta}, '
            f'"counit": {counit}, "field": "Q"}}')


def _parse_error(text) -> str:
    with pytest.raises(CoalgebraParseError) as info:
        parse_coalgebra(text)
    return str(info.value)


def _both_errors(entries, counit=("1", "1")) -> tuple[str, str]:
    """The messages parse_coalgebra (entries as JSON) and Coalgebra(...) (as tuples) raise."""
    text = json.dumps({"dim": 2, "basis": ["e0", "e1"], "delta": entries,
                       "counit": list(counit), "field": "Q"})
    with pytest.raises(CoalgebraParseError) as parsed:
        parse_coalgebra(text)
    with pytest.raises(ValueError) as built:
        Coalgebra(2, ("e0", "e1"), [tuple(e) if type(e) is list else e for e in entries],
                  counit)
    assert type(built.value) is ValueError
    return str(parsed.value), str(built.value)


GOOD = '[0, 0, 0, "1"], [1, 1, 1, "1"]'


class TestParseChecks:
    """parse_coalgebra and Coalgebra(...) name the first bad entry by position, in one message."""

    @pytest.mark.parametrize("bad, message", [
        ("0,0,0,1", "delta[1]: entries are [i, j, k, coeff]"),
        ([0, 0, "1"], "delta[1]: entries are [i, j, k, coeff]"),
        ([0, 1.0, 0, "1"], "delta[1]: index 1.0 out of range"),
        ([0, "1", 0, "1"], "delta[1]: index '1' out of range"),
        ([True, 0, 0, "1"], "delta[1]: index True out of range"),
        ([0, 0, 2, "1"], "delta[1]: index 2 out of range"),
        ([-1, 0, 0, "1"], "delta[1]: index -1 out of range"),
        ([0, 1, 0, 0.5], f"delta[1]: {INEXACT}float"),
        ([0, 1, 0, None],
         f"delta[1]: {INEXACT}NoneType"),
        ([0, 1, 0, False], f"delta[1]: {INEXACT}bool"),
        ([0, 1, 0, "x"], "delta[1]: bad rational 'x': Invalid literal for Fraction: 'x'"),
        ([0, 1, 0, "1/0"], "delta[1]: bad rational '1/0': Fraction(1, 0)"),
        ([0, 0, 0, "2"], "delta[1]: duplicate delta entry (0,0,0)"),
        ([0, 1, 1, "0/7"], "delta[1]: zero coefficient at delta entry (0,1,1)"),
        ([0, 1, 1, 0], "delta[1]: zero coefficient at delta entry (0,1,1)"),
    ])
    def test_entry_messages(self, bad, message):
        assert _both_errors([[0, 0, 0, "1"], bad, [1, 1, 1, "1"]]) == (message, message)

    @pytest.mark.parametrize("coeff", ['"0"', '"0/7"', '"-0"', "0"])
    def test_zero_coefficient(self, coeff):
        text = _doc(f'[[0, 0, 0, "1"], [0, 1, 1, {coeff}], [1, 1, 1, "1"]]')
        assert _parse_error(text) == "delta[1]: zero coefficient at delta entry (0,1,1)"

    def test_duplicate_entry(self):
        text = _doc('[[0, 0, 0, "1"], [1, 1, 1, "1"], [0, 0, 0, "2"]]')
        assert _parse_error(text) == "delta[2]: duplicate delta entry (0,0,0)"

    @pytest.mark.parametrize("entries, counit, message", [
        # a zero in entry 0 is named ahead of a bad index in entry 1
        ([[0, 0, 0, "0"], [0, 0, 9, "1"]], ("1", "1"),
         "delta[0]: zero coefficient at delta entry (0,0,0)"),
        ([[0, 0, 0, "1"], [0, 0, 0, "1"], [0, 0, 9, "1"]], ("1", "1"),
         "delta[1]: duplicate delta entry (0,0,0)"),
        ([[0, 0, 0, "1"], [1, 1, 1, "0"], [0, 0, 0, 0.5]], ("1", "1"),
         "delta[1]: zero coefficient at delta entry (1,1,1)"),
        ([[0, 0, 0, "1"], [0, 1, 1, "x"], [0, 0, 9, "1"]], ("1", "1"),
         "delta[1]: bad rational 'x': Invalid literal for Fraction: 'x'"),
        ([[0, 0, 9, "1"], [0, 1, 1, "x"]], ("1", "1"), "delta[0]: index 9 out of range"),
        ([[1, 1, 1, "1"], [0, 0], [0, 0, 0, "0"]], ("1", "1"),
         "delta[1]: entries are [i, j, k, coeff]"),
        # the counit is checked before any delta entry
        ([[0, 0, 9, "1"]], ("1", 0.5),
         f"counit[1]: {INEXACT}float"),
        ([[0, 0, 0, "0"]], (True, "1"), f"counit[0]: {INEXACT}bool"),
        ([[0, 0, 0, "1"]], ("1", "1/0"), "counit[1]: bad rational '1/0': Fraction(1, 0)"),
    ])
    def test_first_bad_entry_is_named(self, entries, counit, message):
        assert _both_errors(entries, counit) == (message, message)

    def test_non_canonical_strings_give_what_fraction_gives(self):
        texts = ["2/4", "+3", " 1", "1 ", "-6/-4", "007", "3/-4", "2.5", "1e2", "1_0"]
        good = []
        for t in texts:
            try:
                good.append((t, Fraction(t)))
            except ValueError:
                msg = _parse_error(_doc(f'[[0, 0, 0, {json.dumps(t)}]]'))
                assert msg.startswith(f"delta[0]: bad rational {t!r}: "), msg
        delta = ", ".join(f'[0, {i // 2}, {i % 2}, {json.dumps(t)}]'
                          for i, (t, _x) in enumerate(good[:4]))
        c = parse_coalgebra(_doc(f"[{delta}]", counit='["-0/5", "2/4"]'))
        assert [x for *_t, x in c.delta] == [x for _t, x in good[:4]]
        assert c.counit == (Fraction(0), Fraction(1, 2))
        assert all(type(x) is Fraction for *_t, x in c.delta)

    def test_repeated_strings_give_equal_values(self):
        n = 4
        delta = ", ".join(f'[{i}, {j}, {k}, "-6/4"]'
                          for i in range(n) for j in range(n) for k in range(n))
        text = _doc(f"[{delta}]", counit=json.dumps(["1"] * n), dim=n)
        c = parse_coalgebra(text)
        assert len(c.delta) == n**3
        assert {x for *_t, x in c.delta} == {Fraction(-3, 2)}

    def test_round_trip_moved_and_tensored(self):
        rng = random.Random(11)
        for c in _sample_cases(rng):
            assert parse_coalgebra(serialize_coalgebra(c)) == c

    def test_empty_delta(self):
        c = parse_coalgebra(_doc("[]"))
        assert c.delta == ()


class TestDirectConstruction:
    """Coalgebra(...) checks ranges, duplicates and zeros in bulk; the scan names the entry."""

    @staticmethod
    def _make(delta, dim=2):
        return Coalgebra(dim, tuple(f"e{i}" for i in range(dim)), tuple(delta),
                         (Fraction(1),) * dim)

    @pytest.mark.parametrize("delta, message", [
        ([(0, 0, 0, Fraction(1)), (0, 0, 2, Fraction(1))], "delta[1]: index 2 out of range"),
        ([(0, 0, 0, Fraction(1)), (-1, 0, 0, Fraction(1))], "delta[1]: index -1 out of range"),
        ([(0, 0, 0, Fraction(1)), (0, 0, 0, Fraction(2))],
         "delta[1]: duplicate delta entry (0,0,0)"),
        ([(0, 0, 0, Fraction(1)), (1, 1, 1, Fraction(0))],
         "delta[1]: zero coefficient at delta entry (1,1,1)"),
        ([(0, 0, 0, 1), (1, 1, 1, 0)], "delta[1]: zero coefficient at delta entry (1,1,1)"),
        # the first bad entry in input order is the one named
        ([(1, 1, 1, Fraction(0)), (0, 0, 5, Fraction(1))],
         "delta[0]: zero coefficient at delta entry (1,1,1)"),
        ([(0, 0, 5, Fraction(1)), (1, 1, 1, Fraction(0))], "delta[0]: index 5 out of range"),
        ([(0, 0, 0, Fraction(1)), (0, 0, 0)], "delta[1]: entries are [i, j, k, coeff]"),
        # an index must be an int: a float or a bool passes the range test
        ([(0, 1.0, 0, Fraction(1))], "delta[0]: index 1.0 out of range"),
        ([(0, 0, 0, Fraction(1)), (True, 0, 1, Fraction(1))],
         "delta[1]: index True out of range"),
        ([(0, 0, 0, 1), (1, 1, False, 1)], "delta[1]: index False out of range"),
        # a constant must be exact: Fraction() would take a float's binary value
        ([(0, 0, 0, Fraction(1)), (1, 1, 1, 0.5)],
         f"delta[1]: {INEXACT}float"),
        ([(0, 0, 0, True)], f"delta[0]: {INEXACT}bool"),
    ])
    def test_messages(self, delta, message):
        with pytest.raises(ValueError) as info:
            self._make(delta)
        assert str(info.value) == message

    @pytest.mark.parametrize("counit, message", [
        ((Fraction(1), 0.1),
         f"counit[1]: {INEXACT}float"),
        ((True, Fraction(1)), f"counit[0]: {INEXACT}bool"),
    ])
    def test_counit_must_be_exact(self, counit, message):
        with pytest.raises(ValueError) as info:
            Coalgebra(2, ("e0", "e1"), ((0, 0, 0, Fraction(1)),), counit)
        assert str(info.value) == message

    @pytest.mark.parametrize("dim", [2.0, True, "2"])
    def test_dim_must_be_an_int(self, dim):
        with pytest.raises(ValueError) as info:
            Coalgebra(dim, ("e0", "e1"), ((0, 0, 0, Fraction(1)),), (Fraction(1),) * 2)
        assert str(info.value) == f"dim must be an int, got {dim!r}"

    def test_normalizes_like_the_entry_scan(self):
        # lists, ints and out-of-order entries become sorted tuples of Fractions
        c = self._make([[1, 1, 1, 1], (0, 0, 0, Fraction(2, 4))])
        assert c.delta == ((0, 0, 0, Fraction(1, 2)), (1, 1, 1, Fraction(1)))
        assert all(type(e) is tuple and type(e[3]) is Fraction for e in c.delta)
        assert self._make([(1, 1, 1, Fraction(1)), (0, 0, 0, Fraction(1))]) == self._make(
            [(0, 0, 0, 1), (1, 1, 1, 1)])
        # a one-shot iterable is read once, by whichever path runs
        entries = [(1, 1, 1, Fraction(1)), (0, 0, 0, Fraction(1))]
        c = Coalgebra(2, ("e0", "e1"), (e for e in entries), (Fraction(1),) * 2)
        assert c.delta == tuple(sorted(entries))

    def test_true_after_an_equal_int_is_refused(self):
        # True == 1 and hash(True) == hash(1): a constant seen before must match in type too
        with pytest.raises(ValueError) as info:
            self._make([(0, 0, 0, 1), (1, 1, 1, True)])
        assert str(info.value) == f"delta[1]: {INEXACT}bool"
        assert _parse_error(_doc("[[0, 0, 0, 1], [1, 1, 1, true]]")) == f"delta[1]: {INEXACT}bool"

    def test_other_exact_types_convert_as_fraction_does(self):
        Entry = namedtuple("Entry", "i j k c")
        delta = [Entry(1, 1, 1, Decimal("2.5")), Entry(0, 0, 0, Decimal("-0.125")),
                 (0, 1, 1, Decimal("2.5"))]
        c = self._make(delta)
        assert c.delta == tuple(sorted((i, j, k, Fraction(x)) for i, j, k, x in delta))
        assert all(type(e) is tuple and type(e[3]) is Fraction for e in c.delta)
        assert c.integral_delta == (8, ((0, 0, 0, -1), (0, 1, 1, 20), (1, 1, 1, 20)))


def _reference_ingestion(entries) -> tuple[tuple, tuple]:
    """Reference: (delta, integral_delta) with each constant converted on its own.

    Every entry becomes (i, j, k, Fraction(c)), the table is sorted, and
    integral() scales the whole column, one value per entry.
    """
    delta = tuple(sorted((i, j, k, Fraction(x)) for i, j, k, x in entries))
    den, xs = integral([x for *_t, x in delta])
    return delta, (den, tuple((i, j, k, x) for (i, j, k, _x), x in zip(delta, xs)))


class TestIngestion:
    """Construction converts each distinct constant once and scales delta once."""

    # non-canonical strings Fraction accepts, and denominators whose lcm is large
    ODD_TEXTS = ["2/4", "-6/4", "+3", " 1", "1 ", "007", "-0012/0018"]
    PRIMES = [101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157]

    def _constant(self, rng):
        """A random nonzero constant as a Python value: a Fraction, an int or a string."""
        roll = rng.random()
        if roll < 0.2:
            return rng.choice(self.ODD_TEXTS)
        x = Fraction(rng.choice((-1, 1)) * rng.randint(1, 50),
                     rng.choice((1, 2, 3, 4, 6)) * rng.choice([1] + self.PRIMES))
        if roll < 0.35 and x.denominator == 1:
            return int(x)
        if roll < 0.6:
            return f"{x.numerator}/{x.denominator}"
        # a Fraction object of its own, equal to others in the table
        return Fraction(x.numerator, x.denominator)

    def _entries(self, rng):
        n = rng.randint(1, 5)
        keys = rng.sample([(i, j, k) for i in range(n) for j in range(n) for k in range(n)],
                          rng.randint(0, min(n**3, 40)))
        # a small pool repeats constants; fresh draws keep others unique
        pool = [self._constant(rng) for _ in range(rng.randint(1, 4))]
        return n, [[*key, rng.choice(pool) if rng.random() < 0.5 else self._constant(rng)]
                   for key in keys]

    def test_parse_and_construction_match_per_entry_ingestion(self):
        rng = random.Random(29)
        large_lcm = 0
        for _ in range(400):
            n, entries = self._entries(rng)
            delta, scaled = _reference_ingestion(entries)
            large_lcm += scaled[0] > 10**6
            basis = tuple(f"e{i}" for i in range(n))
            built = Coalgebra(n, basis, [tuple(e) for e in entries], (Fraction(1),) * n)
            json_entries = [[i, j, k, x if type(x) in (int, str) else _frac_str(x)]
                            for i, j, k, x in entries]
            text = json.dumps({"dim": n, "basis": list(basis), "delta": json_entries,
                               "counit": ["1"] * n, "field": "Q"})
            parsed = parse_coalgebra(text)
            for c in (built, parsed):
                assert c.delta == delta
                assert c.integral_delta == scaled
                assert all(type(x) is Fraction for *_t, x in c.delta)
                assert all(type(x) is int for *_t, x in c.integral_delta[1])
            assert built == parsed
        assert large_lcm > 20

    def test_each_distinct_string_is_converted_once(self, monkeypatch):
        # 64 entries over 3 distinct strings, plus the 4 counit strings
        calls = []
        original = blocksieve.coalgebra._rational

        def counting(x):
            calls.append(x)
            return original(x)

        monkeypatch.setattr(blocksieve.coalgebra, "_rational", counting)
        texts = ["-6/4", "1/3", "-6/4", "5"]
        delta = ", ".join(f'[{i}, {j}, {k}, "{texts[(i + j + k) % 4]}"]'
                          for i in range(4) for j in range(4) for k in range(4))
        c = parse_coalgebra(_doc(f"[{delta}]", counit=json.dumps(["1"] * 4), dim=4))
        assert len(c.delta) == 64
        assert sorted(calls) == sorted(["-6/4", "1/3", "5"] + ["1"] * 4)

    def test_equal_constants_as_distinct_fraction_objects(self):
        # a Python-built table whose equal constants are distinct objects
        for build in (sweedler_coalgebra, s3_dual_coalgebra, sweedler_tensor_square):
            c = build()
            fresh = [(i, j, k, Fraction(x.numerator, x.denominator)) for i, j, k, x in c.delta]
            assert len({id(x) for *_t, x in fresh}) == len(fresh)
            rebuilt = Coalgebra(c.dim, c.basis, fresh[::-1], c.counit)
            assert (rebuilt.delta, rebuilt.integral_delta) == _reference_ingestion(fresh)
            assert rebuilt == c and rebuilt.integral_delta == c.integral_delta

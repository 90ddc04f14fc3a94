import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

import blocksieve.analyzer
from blocksieve import linalg
from blocksieve.analyzer import (
    MAX_ANALYZE_DIM,
    CoalgebraInvalidError,
    CoalgebraTooLargeError,
    FiltrationChain,
    NonSplitCoradicalError,
    _center,
    _certified_idempotents,
    _hit_maps,
    _krylov,
    _mat_apply,
    _primitive_idempotents,
    _quotient,
    _refined_idempotents,
    _regular_traces,
    analyze,
    coradical_filtration,
    q_table,
    radical,
    simple_components,
)
from blocksieve.blocks import NON_COSEMISIMPLE, NSP, PLAIN, BlockSystem, total_dim
from blocksieve.coalgebra import (
    Algebra,
    Coalgebra,
    change_basis,
    dual_algebra,
    parse_coalgebra,
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

from conftest import poly_gcd, random_change_of_basis, rank, solve_coords

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

    def test_trace_form_kernel_is_the_pairwise_one(self):
        # radical reads trace(L_x L_y) off the regular traces; its kernel is
        # that of the form summed over pairs of constants, on every corpus
        # coalgebra (matrix2 and s3_dual have non-commutative duals, the
        # Sweedler ones a radical) and on two seeded random bases of each
        rng = random.Random(29)
        radical_dims = []
        for name, build in sorted(CORPUS_BUILDERS.items()):
            c = build()
            for moved in (c, *(change_basis(c, random_change_of_basis(rng, c.dim))
                               for _ in range(2))):
                a = dual_algebra(moved)
                gram = _pairwise_trace_form(a)
                expected = linalg.echelon(linalg.nullspace(*linalg.echelon(gram), a.dim))[0]
                assert radical(a) == expected, name
                radical_dims.append(len(expected))
        assert len(radical_dims) == 3 * len(CORPUS_BUILDERS) and max(radical_dims) > 0


def _pairwise_trace_form(a: Algebra) -> list[list]:
    """Reference: trace(L_x L_y) = sum over u, v of c(u; x, v) * c(v; y, u), by pairs of constants."""
    n = a.dim
    by_out_right = {}
    for j, row in enumerate(a.mult):
        for k, terms in row.items():
            for i, cst in terms:
                by_out_right.setdefault((i, k), []).append((j, cst))
    gram = [[0] * n for _ in range(n)]
    for x, row in enumerate(a.mult):
        for v, terms in row.items():
            for u, cx in terms:
                for y, cy in by_out_right.get((v, u), ()):
                    gram[x][y] += cx * cy
    return gram


def _dense_hit(c, f, left):
    """Reference hit map in Fractions: column i is the image of e_i."""
    m = [[Fraction(0)] * c.dim for _ in range(c.dim)]
    for (i, j, k, x) in c.delta:
        used, out = (j, k) if left else (k, j)
        m[out][i] += x * f[used]
    return m


def sparse(f):
    """A dense rational functional as _hit_maps takes it: (den, {coordinate: den * value}),
    den the least positive integer making every value integral, zeros left out."""
    den, ints = linalg.integral(f)
    return den, {j: x for j, x in enumerate(ints) if x}


def sparse_tensor_products(corpus_dir):
    """The 37 tensor products of the analyze-sparse benchmark: 2-3 factors, dim <= 24."""
    factors = {"g1": grouplike_coalgebra(1), "g2": grouplike_coalgebra(2)}
    for name, path in (("g3", "grouplike_c3"), ("g4", "grouplike_c4"), ("sw", "sweedler4"),
                       ("m2", "matrix2"), ("s3", "s3_dual")):
        factors[name] = parse_coalgebra((corpus_dir / f"{path}.json").read_bytes())
    names = [f for f in factors if f != "g1"]
    combos = [("g1", f) for f in factors] + [
        combo for k in (2, 3) for combo in itertools.combinations_with_replacement(names, k)
        if math.prod(factors[f].dim for f in combo) <= 24
    ]
    out = []
    for combo in combos:
        c = factors[combo[0]]
        for f in combo[1:]:
            c = tensor_product(c, factors[f])
        out.append(c)
    return out


class TestHitMaps:
    def test_equal_dense_reference_up_to_one_positive_scalar(self):
        # the scalar is the one _hit_maps returns with each functional's maps
        rng = random.Random(17)
        cases = [sweedler_coalgebra(), s3_dual_coalgebra(), matrix_coalgebra(2),
                 change_basis(sweedler_tensor_square(),
                              random_change_of_basis(rng, 16))]
        for c in cases:
            functionals = [list(s.idempotent) for s in analyze(c, PLAIN).components]
            functionals.append([Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                                for _ in range(c.dim)])
            all_maps = _hit_maps(c, [sparse(f) for f in functionals])
            assert len(all_maps) == len(functionals)
            for f, (left_map, right_map, scale) in zip(functionals, all_maps):
                assert isinstance(scale, int) and scale > 0
                for left, sparse_map in zip((True, False), (left_map, right_map)):
                    got = [[Fraction(0)] * c.dim for _ in range(c.dim)]
                    for i, image in sparse_map:
                        for t, y in image:
                            assert isinstance(y, int) and y != 0
                            got[t][i] = Fraction(y, scale)
                    assert got == _dense_hit(c, f, left)

    def test_one_call_for_all_functionals_equals_one_call_each(self, corpus_dir):
        # maps, their order and their scales do not depend on which other
        # functionals share the pass over delta, even on overlapping supports
        rng = random.Random(41)
        cases = corpus_and_variants(corpus_dir) + sparse_tensor_products(corpus_dir)
        assert len(cases) == 18 + 37
        for c in cases:
            functionals = [sparse(s.idempotent) for s in analyze(c, PLAIN).components]
            for _ in range(3):
                support = rng.sample(range(c.dim), rng.randint(1, c.dim))
                f = [F(0)] * c.dim
                for j in support:
                    f[j] = F(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 6))
                functionals.append(sparse(f))
            together = _hit_maps(c, functionals)
            assert together == [_hit_maps(c, [f])[0] for f in functionals]
            assert _hit_maps(c, []) == []


def filtration_is_compatible(c: Coalgebra, chain) -> bool:
    """Dense reference: Delta(C_n) lies in sum_i C_i (x) C_{n-i}, exactly."""
    n_dim = c.dim
    for n in range(len(chain)):
        target_rows = []
        for i in range(n + 1):
            for u in chain.bases[i]:
                for v in chain.bases[n - i]:
                    target_rows.append([us * vt for us in u for vt in v])
        ech, piv = linalg.echelon(target_rows)
        for w in chain.bases[n]:
            image = [Fraction(0)] * (n_dim * n_dim)
            for (i, j, k, coeff) in c.delta:
                image[j * n_dim + k] += w[i] * coeff
            if any(linalg.residue(linalg.integral(image)[1], ech, piv)):
                return False
    return True


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

    def test_reference_rejects_a_wrong_chain(self):
        # Delta x = x (x) 1 + g (x) x does not lie in span(x) (x) span(x)
        c = sweedler_coalgebra()
        full = tuple(tuple(int(t == i) for t in range(4)) for i in range(4))
        assert not filtration_is_compatible(c, FiltrationChain((((0, 0, 1, 0),), full)))

    def test_products_are_reduced_as_they_are_formed(self):
        # Sweedler^(x)3 (dim 64) forms 5,376 products, 5,256 of them zero; a
        # filtration that held them all before eliminating peaked at 1.78 MB
        a = dual_algebra(tensor_product(sweedler_tensor_square(), sweedler_coalgebra()))
        j_basis = radical(a)
        tracemalloc.start()
        try:
            chain = coradical_filtration(a, j_basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chain.dims[-1] == 64
        assert peak < 512 * 1024, peak


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

    def test_grouplike_subspaces_take_one_image_each(self, monkeypatch):
        # C_0 basis vectors outside a component's hit map cost no echelon step:
        # 24 grouplikes take 24 images, not 24 * 25 / 2.  Counted from
        # simple_components on, since radical's echelon steps are
        # extend_echelon calls too; the dual is commutative, so its center
        # has no equation to eliminate
        calls = 0
        original = linalg.extend_echelon

        def counting(*args):
            nonlocal calls
            calls += 1
            return original(*args)

        c = grouplike_coalgebra(24)
        a = dual_algebra(c)
        j_basis = radical(a)
        chain = coradical_filtration(a, j_basis)
        monkeypatch.setattr(blocksieve.linalg, "extend_echelon", counting)
        comps, _hits = simple_components(c, a, j_basis, chain.bases[0])
        assert len(comps) == 24
        assert calls == 24

    def test_hit_maps_read_delta_once_for_all_components(self):
        # one pass over the scaled delta builds the maps of all 24 components
        class CountingDelta(tuple):
            reads = 0

            def __iter__(self):
                CountingDelta.reads += 1
                return super().__iter__()

        c = grouplike_coalgebra(24)
        den, delta = c.integral_delta
        c.__dict__["integral_delta"] = (den, CountingDelta(delta))
        a = dual_algebra(c)
        j_basis = radical(a)
        chain = coradical_filtration(a, j_basis)
        CountingDelta.reads = 0
        comps, hits = simple_components(c, a, j_basis, chain.bases[0])
        assert len(comps) == len(hits) == 24
        assert CountingDelta.reads == 1

    def test_subspace_step_applies_one_left_map_per_grouplike(self, monkeypatch):
        # the coordinate index finds each grouplike's one C_0 candidate; a
        # single-level chain leaves q_table nothing to apply
        calls = 0
        original = blocksieve.analyzer._mat_apply

        def counting(*args):
            nonlocal calls
            calls += 1
            return original(*args)

        monkeypatch.setattr(blocksieve.analyzer, "_mat_apply", counting)
        res = analyze(grouplike_coalgebra(24), PLAIN)
        assert len(res.components) == 24 and res.filtration.dims == (24,)
        assert calls == 24

    @pytest.mark.parametrize("delta,labels,expected", [
        # grouplikes x0, x1 and x0 + x2
        (((0, 0, 0, F(1)), (1, 1, 1, F(1)),
          (2, 0, 2, F(1)), (2, 2, 0, F(1)), (2, 2, 2, F(1))),
         ("g2", "g0", "x"),
         [("g0", "010"), ("g2", "100"), ("g2'", "101")]),
        (((0, 0, 0, F(1)), (1, 1, 1, F(1)),
          (2, 0, 2, F(1)), (2, 2, 0, F(1)), (2, 2, 2, F(1))),
         ("x", "y", "z"),
         [("g2", "101"), ("x", "100"), ("y", "010")]),
        # grouplikes x0, x1 and x1 + x2: the basis label g1 is taken first
        (((0, 0, 0, F(1)), (1, 1, 1, F(1)),
          (2, 1, 2, F(1)), (2, 2, 1, F(1)), (2, 2, 2, F(1))),
         ("g1", "a", "b"),
         [("a", "010"), ("g1", "011"), ("g2", "100")]),
    ])
    def test_grouplike_labels_basis_counter_and_primes(self, delta, labels, expected):
        # a grouplike that is a basis vector takes its label unless it is
        # taken, else g<count of grouplikes before it>, primed until unused
        c = Coalgebra(3, labels, delta, (F(1), F(1), F(0)))
        assert validate(c) == []
        comps = analyze(c, PLAIN).components
        assert [(s.label, "".join(str(x) for x in s.grouplike)) for s in comps] == expected

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

    def test_non_split_after_a_rational_split(self):
        # a grouplike plus the coalgebra above: the dual is Q x Q[t]/(t^2+t+1),
        # so the first central element splits off the grouplike rationally and
        # the irrational spectrum only shows on the second summand
        delta = (
            (0, 0, 0, F(1)),
            (1, 1, 1, F(1)), (1, 2, 2, F(-1)),
            (2, 1, 2, F(1)), (2, 2, 1, F(1)), (2, 2, 2, F(-1)),
        )
        c = Coalgebra(3, ("g", "c0", "c1"), delta, (F(1), F(1), F(0)))
        assert not radical(dual_algebra(c))
        with pytest.raises(NonSplitCoradicalError, match="extend scalars.*irrational spectrum"):
            analyze(c, PLAIN)


def rational_quaternions_dual() -> Coalgebra:
    """The dual coalgebra of H_Q, on the basis dual to 1, i, j, k.

    Delta e_c holds e_a (x) e_b with the coefficient of c in the product
    a * b of H_Q, so the dual algebra is H_Q itself, a division algebra
    with center Q and dimension 4 = 2^2 that does not split over Q.
    """
    i, j, k = 1, 2, 3
    table = {(0, t): (t, 1) for t in range(4)}
    table.update({(t, 0): (t, 1) for t in range(1, 4)})
    table.update({(t, t): (0, -1) for t in range(1, 4)})
    table.update({(i, j): (k, 1), (j, i): (k, -1), (j, k): (i, 1), (k, j): (i, -1),
                  (k, i): (j, 1), (i, k): (j, -1)})
    delta = tuple((c, a, b, F(x)) for (a, b), (c, x) in table.items())
    return Coalgebra(4, ("1", "i", "j", "k"), delta, (F(1), F(0), F(0), F(0)))


class TestNonSplitSimpleComponents:
    def test_quaternions_are_a_valid_coalgebra_with_a_split_center(self):
        c = rational_quaternions_dual()
        assert validate(c) == []
        a = dual_algebra(c)
        assert not radical(a) and len(_center(a)) == 1

    @pytest.mark.xfail(
        strict=True,
        reason="simple_components tests only the center's splitting and whether the "
               "dimension is a square; a central simple algebra over Q such as H_Q "
               "needs a norm-equation test to be refused",
    )
    def test_quaternions_rejected(self):
        with pytest.raises(NonSplitCoradicalError):
            analyze(rational_quaternions_dual(), PLAIN)


def corpus_and_variants(corpus_dir, per_item=2):
    """The six corpus coalgebras, each followed by seeded random-basis variants."""
    rng = random.Random(29)
    out = []
    for path in sorted(corpus_dir.glob("*.json")):
        c = parse_coalgebra(path.read_bytes())
        out.append(c)
        out.extend(change_basis(c, random_change_of_basis(rng, c.dim)) for _ in range(per_item))
    return out


def semisimple_quotient(c):
    """A/J with its constants scaled to integers, as simple_components builds it."""
    a = dual_algebra(c)
    return _quotient(a, radical(a))[0]


def is_commutative(a):
    """Dense reference: e_s * e_t == e_t * e_s for every pair of basis vectors."""
    units = [[int(t == s) for t in range(a.dim)] for s in range(a.dim)]
    return all(a.multiply(x, y) == a.multiply(y, x) for x in units for y in units)


def center_by_commutators(a):
    """Reference: _center as it was before a commutative algebra was its own center."""
    rows: dict[tuple[int, int], dict[int, int]] = {}
    for s, row in enumerate(a.mult):
        for t, terms in row.items():
            for i, x in terms:
                left = rows.setdefault((t, i), {})
                left[s] = left.get(s, 0) + x
                right = rows.setdefault((s, i), {})
                right[t] = right.get(t, 0) - x
    distinct = set()
    for row in rows.values():
        support = sorted(k for k, x in row.items() if x)
        if support:
            distinct.add(tuple(zip(support, linalg.primitive([row[k] for k in support]))))
    dense = []
    for row in sorted(distinct):
        v = [0] * a.dim
        for k, x in row:
            v[k] = x
        dense.append(v)
    return linalg.nullspace(*linalg.echelon(dense), a.dim)


class TestQuotient:
    def test_no_radical_leaves_the_dual_as_it_is(self, corpus_dir):
        # with J = 0 the projection would copy a term by term: lcm 1, every
        # coordinate kept, each product a's own sorted term tuple
        cosemisimple = 0
        for c in corpus_and_variants(corpus_dir):
            a = dual_algebra(c)
            if radical(a):
                continue
            cosemisimple += 1
            quotient, lcm, keep = _quotient(a, [])
            assert quotient is a
            assert lcm == 1 and keep == list(range(a.dim))
        # grouplike_c3, grouplike_c4, matrix2 and s3_dual, each in 3 bases
        assert cosemisimple == 12


class TestCenter:
    def test_equals_the_commutator_system_on_every_quotient(self, corpus_dir, monkeypatch):
        # a commutative quotient is its own center and eliminates nothing; a
        # noncommutative one gives the commutator system's nullspace as before
        eliminations = 0
        original = linalg.echelon

        def counting(rows):
            nonlocal eliminations
            eliminations += 1
            return original(rows)

        kinds = {True: 0, False: 0}
        for c in corpus_and_variants(corpus_dir):
            q = semisimple_quotient(c)
            commutative = is_commutative(q)
            kinds[commutative] += 1
            eliminations = 0
            monkeypatch.setattr(blocksieve.linalg, "echelon", counting)
            got = _center(q)
            monkeypatch.setattr(blocksieve.linalg, "echelon", original)
            assert got == center_by_commutators(q)
            assert eliminations == (0 if commutative else 1)
        # the grouplike and Sweedler quotients against matrix2's and S3's
        assert kinds == {True: 12, False: 6}


def unit_vectors(n):
    return [[F(int(t == s)) for t in range(n)] for s in range(n)]


def idempotent_vectors(q):
    """_primitive_idempotents(q) as dense rational vectors: each (den, den * e) as e."""
    return [[F(e.get(i, 0), den) for i in range(q.dim)] for den, e in _primitive_idempotents(q)]


class TestPrimitiveIdempotents:
    def test_idempotent_orthogonal_central_and_complete(self, corpus_dir):
        cases = corpus_and_variants(corpus_dir) + [
            tensor_product(s3_dual_coalgebra(), sweedler_coalgebra()),
            tensor_product(grouplike_coalgebra(2), s3_dual_coalgebra()),
        ]
        for c in cases:
            q = semisimple_quotient(c)
            # the projection scales by the lcm of J's pivot entries, so no
            # constant is a Fraction even where delta's have denominators
            assert all(type(x) is int for row in q.mult for terms in row.values()
                       for _u, x in terms)
            idems = idempotent_vectors(q)
            zero = [0] * q.dim
            for i, e in enumerate(idems):
                assert q.multiply(e, e) == e
                for f in idems[i + 1:]:
                    assert q.multiply(e, f) == zero and q.multiply(f, e) == zero
                for b in unit_vectors(q.dim):
                    assert q.multiply(e, b) == q.multiply(b, e)
            assert [sum(col) for col in zip(*idems)] == list(q.unit)
            assert len(idems) == len(_center(q))


def idempotent_key(pair):
    """A sort key for one (den, {i: x}) idempotent; the dicts themselves do not order."""
    den, e = pair
    return den, sorted(e.items())


def tensor_family():
    """Tensor products of 2-3 small coalgebras of dimension <= 24; a 1-dim factor in pairs only."""
    factors = {
        "g1": grouplike_coalgebra(1), "g2": grouplike_coalgebra(2),
        "g3": grouplike_coalgebra(3), "g4": grouplike_coalgebra(4),
        "sw": sweedler_coalgebra(), "m2": matrix_coalgebra(2), "s3": s3_dual_coalgebra(),
    }
    combos = [("g1", f) for f in factors]
    for k in (2, 3):
        for combo in itertools.combinations_with_replacement([f for f in factors if f != "g1"], k):
            if math.prod(factors[f].dim for f in combo) <= 24:
                combos.append(combo)
    out = []
    for combo in combos:
        c = factors[combo[0]]
        for f in combo[1:]:
            c = tensor_product(c, factors[f])
        out.append(c)
    return out


class TestCertifiedIdempotents:
    def test_equal_the_refinement_wherever_the_certificate_holds(self, corpus_dir):
        rng = random.Random(41)
        corpus = [parse_coalgebra(p.read_bytes()) for p in sorted(corpus_dir.glob("*.json"))]
        moved = [change_basis(c, random_change_of_basis(rng, c.dim))
                 for c in corpus for _ in range(3)]
        family = tensor_family()
        certified = []
        for c in corpus + family + moved + [grouplike_coalgebra(256)]:
            q = semisimple_quotient(c)
            center = _center(q)
            got = _certified_idempotents(q, center)
            want = sorted(_refined_idempotents(q, center), key=idempotent_key)
            assert sorted(_primitive_idempotents(q), key=idempotent_key) == want
            if got is not None:
                assert sorted(got, key=idempotent_key) == want
            certified.append(got is not None)
        assert len(family) == 37
        assert 30 <= sum(certified) < len(certified)
        assert certified[-1]

    def test_idempotents_not_summing_to_the_unit_fall_back(self):
        # Q x Q in the basis (1, e): 1 and e are central idempotents spanning
        # the center, but 1 + e is not the unit, so the center's basis is not
        # its primitive idempotents; those are e and 1 - e
        mult = ({0: ((0, 1),), 1: ((1, 1),)}, {0: ((1, 1),), 1: ((1, 1),)})
        a = Algebra(2, mult, (F(1), F(0)))
        center = _center(a)
        assert sorted(center) == [[0, 1], [1, 0]]
        assert all(a.multiply(z, z) == z for z in center)
        assert _certified_idempotents(a, center) is None
        got = sorted(_primitive_idempotents(a), key=idempotent_key)
        assert got == [(1, {0: 1, 1: -1}), (1, {1: 1})]

    def test_grouplikes_need_no_krylov_sequence(self, monkeypatch):
        calls = 0
        original = blocksieve.analyzer._krylov

        def counting(*args):
            nonlocal calls
            calls += 1
            return original(*args)

        monkeypatch.setattr(blocksieve.analyzer, "_krylov", counting)
        res = analyze(grouplike_coalgebra(24), PLAIN)
        assert res.block_system == BlockSystem(24, {(0, 1, 1): 24})
        assert calls == 0
        # the S3 dual's center basis is not idempotent, so it refines
        analyze(s3_dual_coalgebra(), PLAIN)
        assert calls > 0


class TestRationalRootsPrecondition:
    def test_every_minimal_polynomial_is_squarefree(self, corpus_dir, monkeypatch):
        # linalg.rational_roots requires a squarefree polynomial; each one
        # the analyzer hands it is the minimal polynomial of an element of a
        # semisimple algebra, so gcd(p, p') must be a constant
        seen = []
        original = linalg.rational_roots

        def recording(p):
            seen.append(list(p))
            return original(p)

        monkeypatch.setattr(blocksieve.linalg, "rational_roots", recording)
        rng = random.Random(43)
        corpus = [parse_coalgebra(p.read_bytes()) for p in sorted(corpus_dir.glob("*.json"))]
        moved = [change_basis(c, random_change_of_basis(rng, c.dim))
                 for c in corpus for _ in range(3)]
        family = tensor_family()
        for c in corpus + family + moved:
            analyze(c, PLAIN)
        before = len(seen)
        non_split = TestSimpleComponents()
        non_split.test_non_split_rejected()
        non_split.test_non_split_after_a_rational_split()
        assert len(family) == 37 and len(moved) == 18
        assert before >= 50 and len(seen) > before
        for p in seen:
            assert len(poly_gcd(p, [i * x for i, x in enumerate(p)][1:])) == 1, p


class TestKrylov:
    def test_relation_equals_the_solve_coords_reference(self):
        # the minimal polynomial read off the powers' own elimination equals
        # the coordinates of the first dependent power found by a second one
        rng = random.Random(31)
        cases = [
            grouplike_coalgebra(6),
            tensor_product(grouplike_coalgebra(2), s3_dual_coalgebra()),
            tensor_product(s3_dual_coalgebra(), sweedler_coalgebra()),
            change_basis(grouplike_coalgebra(4), random_change_of_basis(rng, 4)),
        ]
        degrees = []
        for c in cases:
            q = semisimple_quotient(c)
            center = _center(q)
            den, unit = linalg.integral(q.unit)
            starts = [{i: x for i, x in enumerate(unit) if x}]
            # a non-unit idempotent: the sum of two primitive ones, over one denominator
            (d1, e1), (d2, e2) = _primitive_idempotents(q)[:2]
            lcm = math.lcm(d1, d2)
            pair = {i: e1.get(i, 0) * (lcm // d1) + e2.get(i, 0) * (lcm // d2)
                    for i in set(e1) | set(e2)}
            starts.append({i: x for i, x in pair.items() if x})
            for e in starts:
                for _ in range(6):
                    z = [sum(rng.randint(-3, 3) * b[i] for b in center) for i in range(q.dim)]
                    got = _krylov(q, e, z)
                    if got is None:
                        continue
                    powers, minpoly = got
                    d, coords = solve_coords(powers, q.multiply(powers[-1], z))
                    assert minpoly == [-x for x in coords] + [d]
                    degrees.append(len(minpoly) - 1)
        assert sum(1 for k in degrees if k >= 3) >= 10
        assert max(degrees) >= 5


class TestTraceRank:
    def test_trace_equals_dense_rank_of_the_ideal(self, corpus_dir):
        for c in corpus_and_variants(corpus_dir):
            q = semisimple_quotient(c)
            traces = _regular_traces(q)
            ranks = []
            for e in idempotent_vectors(q):
                dense = rank([q.multiply(e, b) for b in unit_vectors(q.dim)])
                assert sum(x * t for x, t in zip(e, traces)) == dense
                ranks.append(dense)
            assert sorted(ranks) == sorted(s.dim for s in analyze(c, PLAIN).components)


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


def rank_q_table(comps, hits, chain):
    """q_table by ranks: each pair's hit images of C_n, reduced modulo C_{n-1}."""
    table = {}
    for n in range(1, len(chain)):
        ech_below, piv_below = linalg.echelon([list(v) for v in chain.bases[n - 1]])
        for tau in comps:
            for mu in comps:
                q = rank([
                    linalg.residue(_mat_apply(hits[tau.label][0], _mat_apply(hits[mu.label][1], w)),
                                   ech_below, piv_below)
                    for w in chain.bases[n]
                ])
                if q:
                    table[(n, tau.label, mu.label)] = q
    return table


def q_table_inputs(c):
    a = dual_algebra(c)
    j_basis = radical(a)
    chain = coradical_filtration(a, j_basis)
    comps, hits = simple_components(c, a, j_basis, chain.bases[0])
    return comps, hits, chain


class TestQTableAgainstRanks:
    def test_corpus_and_random_bases(self, corpus_dir):
        for c in corpus_and_variants(corpus_dir):
            args = q_table_inputs(c)
            assert list(q_table(*args).items()) == list(rank_q_table(*args).items())

    def test_tensor_products_with_several_levels(self):
        g, sw = grouplike_coalgebra, sweedler_coalgebra
        rng = random.Random(5)
        sw_m2 = tensor_product(sw(), matrix_coalgebra(2))
        cases = [
            tensor_product(sw(), sw()),
            tensor_product(tensor_product(g(2), g(3)), sw()),
            tensor_product(sw(), s3_dual_coalgebra()),
            sw_m2,
            change_basis(sw_m2, random_change_of_basis(rng, sw_m2.dim)),
        ]
        levels = []
        for c in cases:
            comps, hits, chain = q_table_inputs(c)
            levels.append(len(chain))
            table = q_table(comps, hits, chain)
            assert table
            assert list(table.items()) == list(rank_q_table(comps, hits, chain).items())
        assert max(levels) == 3 and min(levels) == 2

    def test_a_wrong_hit_scale_trips_the_integrality_check(self):
        comps, hits, chain = q_table_inputs(sweedler_coalgebra())
        assert q_table(comps, hits, chain) == {(1, "1", "g"): 1, (1, "g", "1"): 1}
        left_map, right_map, scale = hits["g"]
        hits["g"] = (left_map, right_map, 2 * scale)
        with pytest.raises(AssertionError, match="not a non-negative integer"):
            q_table(comps, hits, chain)


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

    def test_dimension_at_the_bound_passes_the_size_check(self, monkeypatch):
        class Reached(Exception):
            pass

        def stop(_c):
            raise Reached

        monkeypatch.setattr(blocksieve.analyzer, "dual_algebra", stop)
        with pytest.raises(Reached):
            analyze(grouplike_coalgebra(MAX_ANALYZE_DIM), PLAIN)

    def test_dimension_above_the_bound_is_refused_up_front(self, monkeypatch):
        def never(_c):
            raise AssertionError("work started on a refused input")

        for name in ("validate", "dual_algebra"):
            monkeypatch.setattr(blocksieve.analyzer, name, never)
        with pytest.raises(CoalgebraTooLargeError, match=f"limit of {MAX_ANALYZE_DIM}"):
            analyze(grouplike_coalgebra(MAX_ANALYZE_DIM + 1), PLAIN)

    @pytest.mark.parametrize("args, message", [
        ((sweedler_coalgebra(), None), "flags must be a ModeFlags, got None"),
        ((sweedler_coalgebra(), True), "flags must be a ModeFlags, got True"),
        (("x", NSP), "c must be a Coalgebra, got 'x'"),
        ((sweedler_coalgebra().delta, PLAIN), "c must be a Coalgebra, got "),
    ])
    def test_ill_typed_arguments_are_refused_up_front(self, monkeypatch, args, message):
        def never(_c):
            raise AssertionError("work started on a refused input")

        for name in ("validate", "dual_algebra"):
            monkeypatch.setattr(blocksieve.analyzer, name, never)
        with pytest.raises(ValueError) as info:
            analyze(*args)
        assert str(info.value).startswith(message)

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

    @pytest.mark.parametrize("build, levels", [
        (sweedler_coalgebra, 2), (sweedler_tensor_square, 3), (s3_dual_coalgebra, 1),
    ])
    def test_filtration_eliminates_each_power_once(self, monkeypatch, build, levels):
        # one reduction per power J^2, ..., J^levels (which is 0); J's echelon
        # form is radical's result, and each power's echelon form also gives
        # the level's nullspace
        a = dual_algebra(build())
        j_basis = radical(a)
        original = linalg.reduced
        calls = 0

        def counting(ech, pivots):
            nonlocal calls
            calls += 1
            return original(ech, pivots)

        monkeypatch.setattr(blocksieve.linalg, "reduced", counting)
        chain = coradical_filtration(a, j_basis)
        assert len(chain) == levels
        assert calls == levels - 1

    @pytest.mark.parametrize("build, calls_expected", [
        (sweedler_coalgebra, 5), (sweedler_tensor_square, 8), (s3_dual_coalgebra, 6),
    ])
    def test_analyze_eliminates_j_once(self, monkeypatch, build, calls_expected):
        # every elimination ends in one reduction: the trace form and J once
        # each in radical, the powers past J in the filtration, the center of
        # a noncommutative A/J (kS3's; Sweedler's A/J is commutative, so its
        # own center), and one subspace per component (2, 4 and 3 of them):
        # A/J reads its pivots off radical's echelon form instead of
        # eliminating J again
        c = build()
        original = linalg.reduced
        calls = 0

        def counting(ech, pivots):
            nonlocal calls
            calls += 1
            return original(ech, pivots)

        monkeypatch.setattr(blocksieve.linalg, "reduced", counting)
        analyze(c, PLAIN)
        assert calls == calls_expected

    def test_analyze_scales_delta_once(self, monkeypatch):
        # the one scaling is the coalgebra's own table, made at construction
        # by one integral() call over delta's distinct constants, and read by
        # validate, the dual algebra and the hit maps.  The inputs have a
        # radical, so no other table analyze scales (the counit, the dual's
        # unit, a functional) has len(delta) entries
        original = linalg.integral
        rng = random.Random(3)
        sw_s3 = tensor_product(sweedler_coalgebra(), s3_dual_coalgebra())
        inputs = [sweedler_coalgebra(), sweedler_tensor_square(), sw_s3,
                  change_basis(sweedler_coalgebra(), random_change_of_basis(rng, 4))]
        for c in inputs:
            sizes = []

            def counting(values):
                values = list(values)
                sizes.append(len(values))
                return original(values)

            monkeypatch.setattr(blocksieve.linalg, "integral", counting)
            monkeypatch.setattr(blocksieve.coalgebra, "integral", counting)
            c = Coalgebra(c.dim, c.basis, c.delta, c.counit)
            assert sizes == [len({x for *_t, x in c.delta})]
            table = c.integral_delta
            for _ in range(2):
                sizes.clear()
                analyze(c, PLAIN)
                assert len(c.delta) not in sizes
                assert c.integral_delta is table

    def test_delta_scalings_do_not_grow_with_the_components(self, monkeypatch):
        # a scaling of delta is an integral() call on delta's own coefficient
        # objects, in table order; each entry gets a Fraction object of its
        # own, so that no other list (the counit, the dual algebra's
        # constants) can share them
        original = linalg.integral
        inputs = [
            sweedler_coalgebra(),
            grouplike_coalgebra(40),
            tensor_product(tensor_product(grouplike_coalgebra(2), grouplike_coalgebra(3)),
                           grouplike_coalgebra(4)),
        ]
        scalings, components = [], []
        for c in inputs:
            c = Coalgebra(c.dim, c.basis, tuple(
                (i, j, k, F(x.numerator, x.denominator)) for (i, j, k, x) in c.delta
            ), c.counit)
            coeffs = [x for (_i, _j, _k, x) in c.delta]
            calls = 0

            def counting(values):
                nonlocal calls
                values = list(values)
                if len(values) == len(coeffs) and all(
                    v is x for v, x in zip(values, coeffs)
                ):
                    calls += 1
                return original(values)

            monkeypatch.setattr(blocksieve.linalg, "integral", counting)
            monkeypatch.setattr(blocksieve.coalgebra, "integral", counting)
            components.append(len(analyze(c, PLAIN).components))
            scalings.append(calls)
        # analyze reads the table scaled at construction, whatever the
        # number of components
        assert components == [2, 40, 24]
        assert scalings == [0] * len(inputs)


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

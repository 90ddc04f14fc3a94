"""From explicit coalgebras to block systems: exact coradical analysis.

The pipeline is classical duality.  The dual of the coalgebra is a
finite-dimensional algebra A; its Jacobson radical J is the kernel of the
trace form of the regular representation (characteristic 0); the coradical
filtration is read off as annihilators, C_n = (J^{n+1})^perp; the semisimple
quotient A/J decomposes into split simple components whose central
idempotents act on each filtration quotient by the hit actions, and the
ranks of those projectors, taken as their traces, are the isotypic
dimensions.  Aggregating isotypic dimensions by component size yields the
block system, which is then run through the rule engine.

analyze runs each stage once, handing its result to the later stages:

    a = dual_algebra(c)
    j = radical(a)
    chain = coradical_filtration(a, j)
    comps, hits = simple_components(c, a, j, chain.bases[0])
    table = q_table(comps, hits, chain)

Block dimensions are basis invariants: they are ranks of canonically defined
projectors on canonically defined quotients, so a change of basis of the
input coalgebra never changes them.

The kernels touch only nonzero structure constants, in integers.  Delta
is scaled once per coalgebra, at construction, by the lcm D of its
denominators (Coalgebra.integral_delta), and validate, the dual algebra
and the hit maps read that one table: the dual's product is D times the
convolution product and its unit the counit over D, which changes no
kernel, rank, trace sign or echelon form.  So the radical's trace form
(one pass over the constants, weighted by the regular traces, since
trace(L_x L_y) = trace(L_{xy})) and the filtration's products run on
integers, and A/J is projected term by term, scaled by the lcm of the
radical's echelon pivots; with J = 0 it is A itself.  A commutative A/J
is its own center, so only a noncommutative one eliminates a commutator
system.  The primitive central idempotents of A/J, each one positive
denominator times a sparse integer vector, are the center's basis
rescaled when that passes a certificate at one product per vector
(_certified_idempotents); otherwise {1} is refined by fraction-free
Krylov sequences, and a central element that cannot split an idempotent
is detected on that idempotent's support alone.  From there the work
follows supports rather than dim per component: one pass over delta
builds every component's hit maps from the idempotents in that form,
with their scales; a component's subspace is the one-sided hit of its
idempotent on the C_0 vectors that an index from coordinates finds on
the map's domain; its dimension is a trace; and a grouplike and its
label come from one echelon row's nonzeros.  q_table reuses the maps
and counts each isotypic dimension as a difference of traces on
consecutive levels, each level's traces taken once.  Fraction appears
only in scalars and in the stored idempotents and grouplikes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import itemgetter

from . import linalg
from .blocks import BlockIndex, BlockSystem, ModeFlags, _require, block_system_payload
from .coalgebra import Algebra, Coalgebra, _frac_str, dual_algebra, validate
from .rules import RuleViolation, check

ZERO = Fraction(0)


class NonSplitCoradicalError(ValueError):
    """The coradical's dual does not split into full matrix algebras over Q."""


class CoalgebraInvalidError(ValueError):
    """The input fails a coalgebra axiom; carries validate()'s messages."""


# Largest input dimension analyze accepts.  The filtration forms |J^n| * |J|
# dense products of length dim, which grows as dim^3, reducing each as it is
# formed: Sweedler^{(x)4} (dim 256) takes about 1.3-1.6 s of CPU time and
# 19 MB of peak RSS (Python 3.11, shared 2-vCPU x86-64 host), while dim 1024
# would form about 10^9 product entries.
MAX_ANALYZE_DIM = 256


class CoalgebraTooLargeError(ValueError):
    """The input's dimension exceeds MAX_ANALYZE_DIM; refused before any work."""


def radical(a: Algebra) -> list[list[int]]:
    """Reduced echelon basis of the Jacobson radical, the kernel of the trace form.

    In characteristic 0 the radical of a finite-dimensional algebra equals
    the radical of the bilinear form (x, y) -> trace(L_x L_y), one exact
    kernel computation.  In an associative algebra L_x L_y = L_{xy}, so with
    c(i; j, k) the coefficient of e_i in e_j * e_k and tau = _regular_traces(a),
    trace(L_x L_y) = trace(L_{xy}) = sum over i of c(i; x, y) * tau_i: one
    pass over the nonzero constants, taken as they are given.  The dual
    algebra's are ints, and scaling the product by D scales L by D, so the
    form by D^2, which leaves its kernel unchanged.  The kernel comes back
    as linalg.echelon's rows, so the filtration and A/J read J's pivots off it.
    """
    n = a.dim
    tau = _regular_traces(a)
    gram = [[0] * n for _ in range(n)]
    for x, row in enumerate(a.mult):
        g = gram[x]
        for y, terms in row.items():
            g[y] = sum(cst * tau[i] for i, cst in terms)
    return linalg.echelon(linalg.nullspace(*linalg.echelon(gram), n))[0]


def _regular_traces(a: Algebra) -> list:
    """trace(L_{e_j}) for each basis vector: the sum over k of c(k; j, k)."""
    return [sum(x for k, terms in row.items() for i, x in terms if i == k) for row in a.mult]


def _pivots(ech: list[list[int]]) -> list[int]:
    """The pivot columns of echelon rows: each row's first nonzero column."""
    return [next(col for col, x in enumerate(row) if x) for row in ech]


@dataclass(frozen=True)
class FiltrationChain:
    """Nested exact-rational bases for C_0 <= C_1 <= ... <= C."""

    bases: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.bases)

    def __len__(self):
        return len(self.bases)


def coradical_filtration(a: Algebra, j_basis: list[list[int]]) -> FiltrationChain:
    """C_n = annihilator of J^{n+1} in the dual algebra a; strictly increasing.

    j_basis is radical(a), J's reduced echelon basis.  J^{n+1} is spanned by
    the products of J^n's echelon basis with J's, in integers when a's
    constants are; a product scaled by a's D spans the same space.  Each
    nonzero product is reduced as it is formed, so none is held, and one
    linalg.reduced per power gives the level's nullspace basis and the next
    power's products: L levels cost L - 1 reductions, J's being radical's.
    """
    bases: list[tuple[tuple[int, ...], ...]] = []
    power, pivots = j_basis, _pivots(j_basis)
    while True:
        level = linalg.nullspace(power, pivots, a.dim)
        bases.append(tuple(tuple(v) for v in level))
        if len(level) == a.dim:
            break
        if len(bases) > 1 and len(level) <= len(bases[-2]):
            raise AssertionError("coradical filtration failed to grow strictly")
        ech, pivots = [], []
        for v in (a.multiply(x, y) for x in power for y in j_basis):
            if any(v):
                linalg.extend_echelon(ech, pivots, v)
        power, pivots = linalg.reduced(ech, pivots)
    return FiltrationChain(tuple(bases))


@dataclass(frozen=True)
class SimpleComponent:
    """One simple subcoalgebra class of the coradical.

    d is the simple comodule dimension, so the component itself has dimension
    d*d.  The idempotent is the lifted central idempotent of the dual's
    semisimple quotient, stored as a functional on the coalgebra; grouplike
    components (d = 1) also carry their grouplike element.
    """

    label: str
    d: int
    idempotent: tuple[Fraction, ...]
    grouplike: tuple[Fraction, ...] | None = None

    @property
    def dim(self) -> int:
        return self.d * self.d

    @property
    def is_grouplike(self) -> bool:
        return self.d == 1


def _quotient(a: Algebra, j_basis: list[list[int]]) -> tuple[Algebra, int, list[int]]:
    """Semisimple quotient A/J on the non-pivot coordinates of J's echelon form, in integers.

    a has int constants and j_basis is radical(a), J's reduced echelon
    basis.  Its rows are zero at every other pivot, so the image in A/J of
    a sparse product subtracts x / p times the row of each pivot coordinate
    among its terms (x the term, p the row's pivot entry) and reads the
    rest off the kept coordinates.  Scaled by the lcm
    L of the pivot entries, that is L * x at a kept coordinate and
    (L / p) * x times the row, all integers, so the returned algebra has the
    product x o y = L * (x * y) on A/J.  It is isomorphic to A/J through
    x -> x / L: its unit is u / L, its idempotents are those of A/J divided
    by L, and its center, regular traces of idempotents and ideals are
    those of A/J.  Returns the algebra, L and the kept coordinates.

    With J = 0 there is nothing to project: L is 1 and every image would be
    a's own term tuple, which dual_algebra builds sorted with no repeats, so
    a itself is returned with every coordinate kept.
    """
    if not j_basis:
        return a, 1, list(range(a.dim))
    pivots = _pivots(j_basis)
    lcm = math.lcm(*(r[col] for r, col in zip(j_basis, pivots)))
    pivot_rows = {
        col: (lcm // r[col], [(u, x) for u, x in enumerate(r) if x and u != col])
        for r, col in zip(j_basis, pivots)
    }
    keep = [i for i in range(a.dim) if i not in pivot_rows]
    pos = {i: t for t, i in enumerate(keep)}

    def project(terms) -> dict[int, int]:
        out: dict[int, int] = {}
        for i, x in terms:
            if i in pos:
                out[pos[i]] = out.get(pos[i], 0) + lcm * x
            else:
                m, rest = pivot_rows[i]
                s = m * x
                for u, y in rest:
                    out[pos[u]] = out.get(pos[u], 0) - s * y
        return out

    mult: list[dict] = [{} for _ in keep]
    for s in keep:
        for t, terms in a.mult[s].items():
            if t in pos:
                image = tuple(sorted((u, x) for u, x in project(terms).items() if x))
                if image:
                    mult[pos[s]][pos[t]] = image
    # u = ints / den and project(v) is L * pi(v), so the unit pi(u) / L is
    # project(ints) / (den * L^2)
    den, ints = linalg.integral(a.unit)
    unit = project((i, x) for i, x in enumerate(ints) if x)
    quotient = Algebra(
        len(keep), tuple(mult),
        tuple(Fraction(unit.get(t, 0), den * lcm * lcm) for t in range(len(keep))),
    )
    return quotient, lcm, keep


def _center(a: Algebra) -> list[list[int]]:
    """Basis of {z : z * e_t = e_t * z for every t}, from the nonzero constants.

    A commutative a is its own center, and its basis is the identity one,
    the nullspace of a system with no nonzero row.  a is taken to be
    commutative when each stored product e_s * e_t has the same term tuple
    as e_t * e_s: dual_algebra and _quotient store every product sorted,
    so equal products compare equal, and any other a that fails the test
    only takes the general path.  There row (t, i) holds coordinate i of
    z * e_t - e_t * z as a function of z.  The rows are built sparse and
    each is kept once up to a scalar, since a repeat adds nothing to the
    kernel: the comatrix dual M_d gives about 2d^3 nonzero rows, of which
    3d(d-1)/2 are distinct.
    """
    if all(a.mult[t].get(s) == terms for s, row in enumerate(a.mult) for t, terms in row.items()):
        basis = [[0] * a.dim for _ in range(a.dim)]
        for f, z in enumerate(basis):
            z[f] = 1
        return basis
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


def _multiple_of(a: Algebra, e: dict[int, int], z: list[int]) -> int | None:
    """r with e*z = (r / x0) * e, x0 being e's first entry, else None; in O(support of e)."""
    w: dict[int, int] = {}
    for j, x in e.items():
        for k, terms in a.mult[j].items():
            if z[k]:
                s = x * z[k]
                for i, cst in terms:
                    w[i] = w.get(i, 0) + s * cst
    j0, x0 = next(iter(e.items()))
    ratio = w.get(j0, 0)
    if all(w.get(i, 0) * x0 == ratio * x for i, x in e.items()) and all(
        i in e for i, y in w.items() if y
    ):
        return ratio
    return None


def _krylov(a: Algebra, e: dict[int, int], z: list[int]) -> tuple[list, list[int]] | None:
    """Powers e, e*z, e*z^2, ... in eA while they stay independent; None if there is one.

    e is a sparse integer vector {i: x}, den times an idempotent e', and z
    is central, so e*z^k is den times w^k for w = e'*z: the powers of w in
    e'A with e' as their unit, all scaled alike.  A z that cannot split e
    (w in Q*e') is found by _multiple_of in O(support) and gives None.  Otherwise
    each power, as a dense vector, is reduced against the earlier ones with
    the fraction-free residue, carrying a tail that starts as the unit
    vector of its exponent: a reduced row is its head plus its tail's
    combination of the powers, so when a head reduces to zero its tail is
    a relation among the powers, with the new power's coefficient still
    positive.  There are at most dim + 1 powers, since at most dim are
    independent.  Returns the independent powers and the minimal
    polynomial of w on e'A, the tail divided by its content: primitive,
    with a positive leading coefficient.
    """
    if _multiple_of(a, e, z) is not None:
        return None
    n = a.dim
    powers: list[list[int]] = []
    ech: list[list[int]] = []
    pivots: list[int] = []
    power = [e.get(i, 0) for i in range(n)]
    while True:
        tail = [0] * (n + 1)
        tail[len(powers)] = 1
        row = linalg.residue(power + tail, ech, pivots)
        pivot = next((col for col in range(n) if row[col]), None)
        if pivot is None:
            break
        ech.append(linalg.primitive(row))
        pivots.append(pivot)
        powers.append(power)
        power = a.multiply(power, z)
    relation = row[n:n + len(powers) + 1]
    content = math.gcd(*relation)
    return powers, [x // content for x in relation]


def _primitive_idempotents(a: Algebra) -> list[tuple[int, dict[int, int]]]:
    """Primitive central idempotents of a split semisimple algebra, as (den, den * e).

    Each idempotent e is held as one positive integer den times a sparse
    integer vector {i: x}, with gcd(den, x's) = 1; a has integer constants,
    so every product stays an integer.  The center's own basis is tried
    first (_certified_idempotents); only when it is not already the answer
    is {1} refined (_refined_idempotents).  Both give the same list up to
    order, since primitive central idempotents are unique.
    """
    center = _center(a)
    certified = _certified_idempotents(a, center)
    if certified is not None:
        return certified
    return _refined_idempotents(a, center)


def _certified_idempotents(
    a: Algebra, center: list[list[int]]
) -> list[tuple[int, dict[int, int]]] | None:
    """The center basis rescaled, when that is the set of primitive central idempotents.

    Each basis vector z costs one product on its support (_multiple_of):
    z * z = mu * z with mu != 0 makes z / mu an idempotent.  If
    every one passes and the k = dim Z idempotents sum to the unit, they
    are the primitive ones (Friedl and Ronyai, STOC 1985, split commutative
    semisimple algebras the same way): in a splitting Z = K_1 + ... + K_t
    into fields, each is a nonzero 0/1 vector, and in characteristic 0
    vectors of 0s and 1s summing to 1 have disjoint supports, so
    k <= t <= sum of [K_tau : Q] = dim Z = k.  Hence every K_tau is Q
    and each idempotent is supported on one factor.  Returns None at the
    first vector that fails, or when the sum is not the unit.
    """
    idempotents = []
    total: list = [0] * a.dim
    for z in center:
        sparse = {i: x for i, x in enumerate(z) if x}
        ratio = _multiple_of(a, sparse, z)  # mu times z's first nonzero entry
        if not ratio:
            return None
        s = Fraction(next(iter(sparse.values())), ratio)  # z is primitive: lowest terms
        e = {i: s.numerator * x for i, x in sparse.items()}
        for i, x in e.items():
            total[i] += Fraction(x, s.denominator)
        idempotents.append((s.denominator, e))
    if total != list(a.unit):
        return None
    return idempotents


def _refined_idempotents(a: Algebra, center: list[list[int]]) -> list[tuple[int, dict[int, int]]]:
    """Primitive central idempotents by refining {1} with the spectrum of each central z.

    On each current idempotent e, w = e*z either lies in Q*e (z cannot
    split e, and e is kept) or has a minimal polynomial on eA, squarefree
    as linalg.rational_roots requires since eA is semisimple; the input
    splits over Q only if its roots are rational.  The finer idempotents
    are the Lagrange interpolants f(w) of w at those roots, each a combination of the
    stored powers of w, since deg f is below their count.  For the
    eigenvalue lam, f is s * g with g = prod over the other eigenvalues
    mu = p/q of (q*t - p), an integer polynomial, and s = prod of
    1 / (q * (lam - mu)); so g's combination of the powers is an integer
    vector, divided by its gcd, and s only moves den.  Once there are as
    many idempotents as the center has dimensions, the center is split and
    each of them is primitive, so the later basis elements would only
    return them unchanged.  This tests up to k central elements against up
    to k idempotents, O(k^2) _krylov calls for k components.
    """
    den, unit = linalg.integral(a.unit)
    idempotents = [(den, {i: x for i, x in enumerate(unit) if x})]
    for z in center:
        if len(idempotents) == len(center):
            break
        refined: list[tuple[int, dict[int, int]]] = []
        for den, e in idempotents:
            krylov = _krylov(a, e, z)
            if krylov is None:
                refined.append((den, e))
                continue
            powers, minpoly = krylov
            roots, split = linalg.rational_roots(minpoly)
            if not split:
                raise NonSplitCoradicalError(
                    "non-split coradical; extend scalars (a central element has "
                    "an irrational spectrum)"
                )
            for lam in roots:
                g, s = [1], Fraction(1, den)
                for mu in roots:
                    if mu != lam:
                        p, q = mu.numerator, mu.denominator
                        g = [q * hi - p * lo for lo, hi in zip(g + [0], [0] + g)]
                        s /= q * (lam - mu)
                v = [0] * a.dim
                for gk, power in zip(g, powers):
                    if gk:
                        for i, x in enumerate(power):
                            if x:
                                v[i] += gk * x
                content = math.gcd(*v)
                s *= content
                refined.append(
                    (s.denominator, {i: s.numerator * (x // content) for i, x in enumerate(v) if x})
                )
        idempotents = refined
    return idempotents


def _hit_maps(c: Coalgebra, functionals) -> list[tuple[list, list, int]]:
    """The left and right hit actions of each functional (den, {j: int}) on c, in integers.

    The functional is the sparse integer vector divided by the positive
    den, and its action is v -> f applied to the left, respectively right,
    tensorand of Delta v.  A map lists (i, image) for each basis vector e_i
    with a nonzero image, the image as its nonzero (index, value) pairs.
    The functionals are indexed by coordinate, so one pass over
    c.integral_delta builds every map: the exact map times den times
    delta's D, returned with it.
    """
    dd, delta = c.integral_delta
    by_coord: list[list[tuple[int, int]]] = [[] for _ in range(c.dim)]
    scales = []
    for m, (df, f) in enumerate(functionals):
        scales.append(df)
        for j, y in f.items():
            by_coord[j].append((m, y))
    lefts: list[dict] = [{} for _ in scales]
    rights: list[dict] = [{} for _ in scales]
    for i, j, k, x in delta:
        for m, y in by_coord[j]:
            row = lefts[m].setdefault(i, {})
            row[k] = row.get(k, 0) + x * y
        for m, y in by_coord[k]:
            row = rights[m].setdefault(i, {})
            row[j] = row.get(j, 0) + x * y

    def listed(m):  # the nonzero (t, y) pairs of each row, and the rows that have one
        return [(i, im) for i, r in m.items() if (im := tuple(filter(itemgetter(1), r.items())))]

    return [(listed(lm), listed(rm), df * dd) for lm, rm, df in zip(lefts, rights, scales)]


def _mat_apply(m, v) -> list[int]:
    """Apply a map in _hit_maps' sparse form to an integer vector."""
    out = [0] * len(v)
    for i, image in m:
        vi = v[i]
        if vi:
            for t, y in image:
                out[t] += y * vi
    return out


def _component_subspaces(lefts, sizes, c0_basis) -> list[list[list[int]]]:
    """Echelon basis of e -> C_0 for each idempotent e, from its left hit map and size.

    On C_0, e is the counit on its own simple subcoalgebra and zero on the
    others, so e hits C_0 onto that subcoalgebra from either side alone.
    The images are taken in C_0's order until size of them are independent,
    from just the vectors an index from coordinates finds on the map's
    domain, the others having image 0: k grouplikes cost k images.
    """
    supported: dict[int, list[int]] = {}
    for n, v in enumerate(c0_basis):
        for i in compress(range(len(v)), v):
            supported.setdefault(i, []).append(n)
    subspaces = []
    for left, size in zip(lefts, sizes):
        ech, pivots = [], []
        for n in sorted({n for i, _image in left for n in supported.get(i, ())}):
            if len(ech) == size:
                break
            linalg.extend_echelon(ech, pivots, _mat_apply(left, c0_basis[n]))
        if len(ech) != size:
            raise AssertionError("component subspace rank mismatch")
        subspaces.append(linalg.reduced(ech, pivots)[0])
    return subspaces


def simple_components(
    c: Coalgebra, a: Algebra, j_basis: list[list[int]], c0_basis
) -> tuple[list[SimpleComponent], dict[str, tuple[list, list, int]]]:
    """Simple subcoalgebra classes of the coradical, canonically ordered, and their hit maps.

    a is the dual algebra of c, j_basis its radical and c0_basis the
    coradical C_0 (the filtration's first level).  Requires the dual's
    semisimple quotient to split over Q into full matrix components;
    otherwise NonSplitCoradicalError is raised.  Grouplike components are
    labelled by their basis vector when the grouplike element is one, else
    g0, g1, ...; larger components get s0, s1, ...  Also returns, by label,
    the left and right hit maps of each component's idempotent (_hit_maps'
    form, with their scale), which q_table applies.

    Each primitive central idempotent e of A/J gives one component, of
    dimension rank(e * A/J) = trace(L_e), read off the regular traces of the
    quotient's basis in one pass.  Primitive central idempotents are unique
    and the components are sorted on (d, echelon subspace), so the result
    does not depend on how the idempotents are found.  Each idempotent is
    lifted to A/J sparse, and the work past it follows supports.
    """
    quotient, lcm, keep = _quotient(a, j_basis)
    # a's product is D times the convolution product and the quotient's is
    # lcm times a's, so an idempotent of A/J is D * lcm times one of the quotient
    scale = c.integral_delta[0] * lcm
    traces = _regular_traces(quotient)
    counit_den, counit = linalg.integral(c.counit)
    found = []
    for den, e_bar in _primitive_idempotents(quotient):
        # L_e is idempotent, so rank(e * A/J) = trace(L_e)
        ideal_rank = sum(x * traces[t] for t, x in e_bar.items()) // den
        d = math.isqrt(ideal_rank)
        if d * d != ideal_rank:
            raise NonSplitCoradicalError(
                "non-split coradical; extend scalars (a simple component has "
                f"dimension {ideal_rank}, not a perfect square)"
            )
        # the idempotent of A/J is scale * e_bar / den, lifted by zeros at J's
        # pivots; gcd(den, e_bar) = 1, so dividing den and scale by their gcd
        # leaves it in lowest terms
        g = math.gcd(den, scale)
        found.append((d, (den // g, {keep[t]: scale // g * x for t, x in e_bar.items()})))
    if sum(d * d for d, _e in found) != len(c0_basis):
        raise AssertionError("central idempotents do not fill the coradical")
    maps = _hit_maps(c, [e for _d, e in found])
    subspaces = _component_subspaces([h[0] for h in maps], [d * d for d, _e in found], c0_basis)
    raw = []
    for (d, (den, e)), hits, subspace in zip(found, maps, subspaces):
        idempotent = [ZERO] * c.dim
        for j, x in e.items():
            idempotent[j] = Fraction(x, den)
        grouplike = named = None
        if d == 1:
            v = subspace[0]
            support = list(compress(range(c.dim), v))
            eps = sum(counit[i] * v[i] for i in support)
            if eps == 0:
                raise AssertionError("grouplike component with vanishing counit")
            # v / counit(v), with counit(v) = eps / counit_den; one entry 1 names it
            grouplike = [ZERO] * c.dim
            for i in support:
                grouplike[i] = Fraction(v[i] * counit_den, eps)
            if len(support) == 1 and v[support[0]] * counit_den == eps:
                named = c.basis[support[0]]
            grouplike = tuple(grouplike)
        raw.append((d, tuple(map(tuple, subspace)), tuple(idempotent), grouplike, named, hits))
    raw.sort(key=lambda t: (t[0], t[1]))
    comps = []
    counters = {"g": 0, "s": 0}
    used = set()
    for d, _sig, e, grouplike, label, hits in raw:
        kind = "s" if grouplike is None else "g"
        if label is None or label in used:
            label = f"{kind}{counters[kind]}"
        counters[kind] += 1
        while label in used:
            label += "'"
        used.add(label)
        comps.append((SimpleComponent(label, d, e, grouplike), hits))
    comps.sort(key=lambda t: (t[0].d, t[0].label))
    return [s for s, _h in comps], {s.label: h for s, h in comps}


def _level_traces(
    comps: list[SimpleComponent], hits: dict[str, tuple[list, list, int]], columns, basis
) -> tuple[int, dict[tuple[str, str], int]]:
    """Traces of the integer maps L_tau R_mu on span(basis), as (den, den * trace) for every pair.

    basis is a linalg.nullspace basis, so each vector v has a coordinate
    p_v where it alone is nonzero, its free column, which is its last
    nonzero coordinate; a map T that keeps the span has trace sum over v of
    (T v)[p_v] / v[p_v].  T v is one right-hit application per (mu, v); its
    coordinate p_v is one dot with the image column p_v of each L_tau,
    which columns[tau] holds as (i, y) pairs.  den is the lcm of the v[p_v].
    """
    free = [max(compress(range(len(v)), v)) for v in basis]
    den = math.lcm(*(v[p] for v, p in zip(basis, free)))
    rows = []
    for v, p in zip(basis, free):
        cols = [(tau.label, columns[tau.label][p]) for tau in comps if p in columns[tau.label]]
        if cols:
            rows.append((v, den // v[p], cols))
    traces = dict.fromkeys(((tau.label, mu.label) for tau in comps for mu in comps), 0)
    for mu in comps:
        right = hits[mu.label][1]
        for v, weight, cols in rows:
            w = _mat_apply(right, v)
            for label, col in cols:
                dot = 0
                for i, y in col:
                    dot += w[i] * y
                traces[label, mu.label] += weight * dot
    return den, traces


def q_table(
    comps: list[SimpleComponent],
    hits: dict[str, tuple[list, list, int]],
    chain: FiltrationChain,
) -> dict[tuple[int, str, str], int]:
    """Isotypic dimensions of the filtration quotients of the coalgebra.

    (n, tau, mu) -> dimension of the part of C_n/C_{n-1} whose left coaction
    lands in component tau and right coaction in component mu.  hits holds
    each component's left and right hit maps and their scale, as
    simple_components returns them.  Zero entries are omitted.

    J maps C_n into C_{n-1}, so A acts on C_n/C_{n-1} through A/J, where
    the hit action L_tau R_mu of the two central idempotents is idempotent;
    its rank there, the dimension sought, is its trace, which is the trace
    on C_n minus the trace on C_{n-1}.  On C_0 the action is that of A/J
    itself, which projects onto the simple subcoalgebra tau from either
    side, so the trace there is d_tau^2 if tau = mu and 0 otherwise.  Each
    higher level's traces are taken once, on the filtration's own nullspace
    bases, in integers over one common denominator; a difference that is
    not a non-negative integer, or a level whose dimensions do not add up
    to its jump, raises.  A chain with one level has no quotient and costs
    nothing.
    """
    table: dict[tuple[int, str, str], int] = {}
    if len(chain) == 1:
        return table
    columns = {}
    for tau in comps:
        col: dict[int, list[tuple[int, int]]] = {}
        for i, image in hits[tau.label][0]:
            for t, y in image:
                col.setdefault(t, []).append((i, y))
        columns[tau.label] = col
    # the traces on C_0 of the integer maps, the exact maps times their scales
    den_below = 1
    below = {(tau.label, mu.label): (tau.dim * hits[tau.label][2] ** 2 if tau is mu else 0)
             for tau in comps for mu in comps}
    for n in range(1, len(chain)):
        den, traces = _level_traces(comps, hits, columns, chain.bases[n])
        jump = len(chain.bases[n]) - len(chain.bases[n - 1])
        seen = 0
        for tau in comps:
            for mu in comps:
                pair = (tau.label, mu.label)
                common = den * den_below * hits[tau.label][2] * hits[mu.label][2]
                q, rem = divmod(traces[pair] * den_below - below[pair] * den, common)
                if rem or q < 0:
                    raise AssertionError(
                        f"isotypic dimension at level {n} for {pair} is not a non-negative integer"
                    )
                if q:
                    table[(n, tau.label, mu.label)] = q
                    seen += q
        if seen != jump:
            raise AssertionError("isotypic dimensions do not fill the quotient")
        den_below, below = den, traces
    return table


@dataclass(frozen=True)
class AnalysisResult:
    """Everything the analyzer derives from one coalgebra."""

    components: tuple[SimpleComponent, ...]
    filtration: FiltrationChain
    q_table: dict[tuple[int, str, str], int]
    block_system: BlockSystem
    rule_report: tuple[RuleViolation, ...]

    @property
    def verdict(self) -> str:
        if self.rule_report:
            return "fails necessity: not admissible (under the given flags)"
        return "passes all necessary conditions (no admissibility claim)"

    def as_json_dict(self) -> dict:
        return {
            "components": [
                {
                    "label": s.label,
                    "d": s.d,
                    "dim": s.dim,
                    "grouplike": s.is_grouplike,
                    "idempotent": [_frac_str(x) if x else "0" for x in s.idempotent],
                    "element": s.grouplike and [_frac_str(x) if x else "0" for x in s.grouplike],
                }
                for s in self.components
            ],
            "filtration_dims": list(self.filtration.dims),
            "filtration_bases": [
                [list(v) for v in level] for level in self.filtration.bases
            ],
            "q_table": [
                {"level": n, "tau": t, "mu": m, "dim": v}
                for (n, t, m), v in sorted(self.q_table.items())
            ],
            "block_system": block_system_payload(self.block_system),
            "rule_report": [v.as_json_dict() for v in self.rule_report],
            "verdict": self.verdict,
        }


def _escalation_violations(
    comps, table: dict[tuple[int, str, str], int]
) -> list[RuleViolation]:
    """Per-component escalation, sharper than the block-level rule.

    A nonzero isotypic piece (n1, tau, mu) with d_tau != d_mu or with
    dimension different from d_tau^2 forces some nonzero (n2, tau, E) with
    n2 > n1.  Only the analyzer can see this: after aggregation into blocks
    the d_tau^2 trigger disappears and the row constraint coarsens to the
    dimension d_tau.
    """
    dims = {s.label: s.d for s in comps}
    out = []
    for (n1, tau, mu), q in sorted(table.items()):
        dt, dm = dims[tau], dims[mu]
        if dt != dm or q != dt * dt:
            if not any(
                n2 > n1 and t2 == tau and v > 0
                for (n2, t2, _m2), v in table.items()
            ):
                out.append(
                    RuleViolation(
                        "R5",
                        (BlockIndex(n1, dt, dm),),
                        f"isotypic escalation: component ({tau},{mu}) at level {n1} "
                        f"has dimension {q} with trigger "
                        f"{'d_tau != d_mu' if dt != dm else 'dim != d_tau^2'}, "
                        f"but no higher level continues row {tau}",
                        missing_witness=f"a component (n2,{tau},E) nonzero with n2>{n1}",
                    )
                )
    return out


def analyze(c: Coalgebra, flags: ModeFlags) -> AnalysisResult:
    """Full pipeline: validate, decompose once per stage, aggregate, rule-check.

    Raises ValueError unless c is a Coalgebra and flags a ModeFlags, before
    any work; CoalgebraTooLargeError when c.dim exceeds MAX_ANALYZE_DIM,
    CoalgebraInvalidError for axiom failures and NonSplitCoradicalError when
    the coradical does not split over Q.
    """
    _require(c, Coalgebra, "c")
    _require(flags, ModeFlags, "flags")
    if c.dim > MAX_ANALYZE_DIM:
        raise CoalgebraTooLargeError(
            f"coalgebra of dimension {c.dim} is above the analyzer's limit of "
            f"{MAX_ANALYZE_DIM}"
        )
    failures = validate(c)
    if failures:
        raise CoalgebraInvalidError("; ".join(failures))
    a = dual_algebra(c)
    j_basis = radical(a)
    chain = coradical_filtration(a, j_basis)
    comps, hits = simple_components(c, a, j_basis, chain.bases[0])
    table = q_table(comps, hits, chain)
    dims = {s.label: s.d for s in comps}
    blocks: dict[BlockIndex, int] = {}
    for s in comps:
        idx = BlockIndex(0, s.d, s.d)
        blocks[idx] = blocks.get(idx, 0) + s.dim
    for (n, tau, mu), q in table.items():
        idx = BlockIndex(n, dims[tau], dims[mu])
        blocks[idx] = blocks.get(idx, 0) + q
    r = sum(1 for s in comps if s.is_grouplike)
    system = BlockSystem(r, blocks)
    report = list(check(system, flags)) + _escalation_violations(comps, table)
    return AnalysisResult(tuple(comps), chain, table, system, tuple(report))

"""From explicit coalgebras to block systems: exact coradical analysis.

The pipeline is classical duality.  The dual of the coalgebra is a
finite-dimensional algebra A; its Jacobson radical J is the kernel of the
trace form of the regular representation (characteristic 0); the coradical
filtration is read off as annihilators, C_n = (J^{n+1})^perp; the semisimple
quotient A/J decomposes into split simple components whose central
idempotents act on each filtration quotient by the hit actions, and the ranks
of those projectors are the isotypic dimensions.  Aggregating isotypic
dimensions by component size yields the block system, which is then run
through the rule engine.

analyze runs each stage once, handing its result to the later stages:

    a = dual_algebra(c)
    j = radical(a)
    chain = coradical_filtration(a, j)
    comps = simple_components(c, a, j, chain.bases[0])
    table = q_table(c, comps, chain)

Block dimensions are basis invariants: they are ranks of canonically defined
projectors on canonically defined quotients, so a change of basis of the
input coalgebra never changes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .blocks import BlockIndex, BlockSystem
from .coalgebra import Algebra, Coalgebra, dual_algebra, validate
from .rules import RuleViolation, check

ZERO = Fraction(0)
ONE = Fraction(1)


class NonSplitCoradicalError(ValueError):
    """The coradical's dual does not split into full matrix algebras over Q."""


class CoalgebraInvalidError(ValueError):
    """The input fails a coalgebra axiom; carries validate()'s messages."""


def radical(a: Algebra) -> list[list[int]]:
    """Basis of the Jacobson radical, as the kernel of the trace form.

    In characteristic 0 the radical of a finite-dimensional algebra equals
    the radical of the bilinear form (x, y) -> trace(L_x L_y), one exact
    kernel computation.
    """
    n = a.dim
    gram = [[ZERO] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            s = ZERO
            for u in range(n):
                row = a.mult[y][u]
                for v in range(n):
                    if row[v]:
                        s += row[v] * a.mult[x][v][u]
            gram[x][y] = s
    return linalg.nullspace(gram, ncols=n)


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
    """C_n = annihilator of J^{n+1} in the dual algebra a; strictly increasing."""
    bases: list[tuple[tuple[int, ...], ...]] = []
    power = j_basis
    while True:
        level = linalg.nullspace(power, ncols=a.dim) if power else [
            [1 if t == i else 0 for t in range(a.dim)] for i in range(a.dim)
        ]
        bases.append(tuple(tuple(v) for v in level))
        if len(level) == a.dim:
            break
        if len(bases) > 1 and len(level) <= len(bases[-2]):
            raise AssertionError("coradical filtration failed to grow strictly")
        power = linalg.echelon(
            [a.multiply([Fraction(t) for t in x], [Fraction(t) for t in y])
             for x in power for y in j_basis]
        )[0]
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


def _quotient(a: Algebra, j_basis: list[list[int]]):
    """Semisimple quotient A/J on the non-pivot coordinates of J's echelon form."""
    ech, pivots = linalg.echelon(j_basis) if j_basis else ([], [])
    keep = [i for i in range(a.dim) if i not in pivots]

    def project(v) -> list[Fraction]:
        red = linalg.reduce_against(v, ech, pivots)
        return [red[i] for i in keep]

    def lift(w) -> list[Fraction]:
        out = [ZERO] * a.dim
        for t, i in enumerate(keep):
            out[i] = Fraction(w[t])
        return out

    q = len(keep)
    mult_rows = []
    basis_vecs = [lift([ONE if t == s else ZERO for t in range(q)]) for s in range(q)]
    for x in basis_vecs:
        row = []
        for y in basis_vecs:
            row.append(tuple(project(a.multiply(x, y))))
        mult_rows.append(tuple(row))
    quotient = Algebra(q, tuple(mult_rows), tuple(project(list(a.unit))))
    return quotient, lift


def _center(a: Algebra) -> list[list[Fraction]]:
    n = a.dim
    rows = []
    for t in range(n):
        for coord in range(n):
            rows.append(
                [a.mult[s][t][coord] - a.mult[t][s][coord] for s in range(n)]
            )
    return [[Fraction(x) for x in v] for v in linalg.nullspace(rows, ncols=n)]


def _primitive_idempotents(a: Algebra) -> list[list[Fraction]]:
    """Primitive central idempotents of a split semisimple algebra.

    Refines {1} by the spectrum of each central basis element: the minimal
    polynomial of z on each current summand must split into distinct rational
    linear factors (else the input is not split over Q), and the Lagrange
    interpolants of z at its eigenvalues are the finer idempotents.
    """
    idempotents = [list(a.unit)]
    for z in _center(a):
        refined: list[list[Fraction]] = []
        for e in idempotents:
            w = a.multiply(e, z)
            krylov = [e]
            power = e
            while True:
                power = a.multiply(power, w)
                coeffs = linalg.solve_coords(krylov, power)
                if coeffs is not None:
                    minpoly = [-x for x in coeffs] + [ONE]
                    break
                krylov.append(power)
            roots, split = linalg.rational_roots(linalg.poly_int(minpoly))
            if not split:
                raise NonSplitCoradicalError(
                    "non-split coradical; extend scalars (a central element has "
                    "an irrational spectrum)"
                )
            if len(roots) <= 1:
                refined.append(e)
                continue
            for lam in roots:
                part = e
                for other in roots:
                    if other == lam:
                        continue
                    scaled = [(x - other * y) / (lam - other) for x, y in zip(w, e)]
                    # multiply part by (w - other*e)/(lam - other) inside eA
                    part = a.multiply(part, scaled)
                if any(part):
                    refined.append(part)
        idempotents = refined
    return idempotents


def _left_hit(c: Coalgebra, f: list[Fraction]) -> list[list[Fraction]]:
    """Matrix of v -> f applied to the left tensorand of Delta v."""
    n = c.dim
    m = [[ZERO] * n for _ in range(n)]
    for (i, j, k, coeff) in c.delta:
        if f[j]:
            m[k][i] += coeff * f[j]
    return m


def _right_hit(c: Coalgebra, f: list[Fraction]) -> list[list[Fraction]]:
    """Matrix of v -> f applied to the right tensorand of Delta v."""
    n = c.dim
    m = [[ZERO] * n for _ in range(n)]
    for (i, j, k, coeff) in c.delta:
        if f[k]:
            m[j][i] += coeff * f[k]
    return m


def _mat_apply(m, v):
    n = len(m)
    return [sum(m[i][j] * v[j] for j in range(n) if v[j]) for i in range(n)]


def _component_subspace(c: Coalgebra, e: list[Fraction], c0_basis) -> list[list[int]]:
    lh, rh = _left_hit(c, e), _right_hit(c, e)
    images = [
        _mat_apply(lh, _mat_apply(rh, [Fraction(t) for t in v])) for v in c0_basis
    ]
    return linalg.echelon(images)[0]


def simple_components(
    c: Coalgebra, a: Algebra, j_basis: list[list[int]], c0_basis
) -> list[SimpleComponent]:
    """Simple subcoalgebra classes of the coradical, canonically ordered.

    a is the dual algebra of c, j_basis its radical and c0_basis the
    coradical C_0 (the filtration's first level).  Requires the dual's
    semisimple quotient to split over Q into full matrix components;
    otherwise NonSplitCoradicalError is raised.  Grouplike components are
    labelled by their basis vector when the grouplike element is one, else
    g0, g1, ...; larger components get s0, s1, ...
    """
    quotient, lift = _quotient(a, j_basis)
    raw = []
    for e_bar in _primitive_idempotents(quotient):
        e = lift(e_bar)
        ideal_rank = linalg.rank(
            [quotient.multiply(e_bar, [ONE if t == s else ZERO for t in range(quotient.dim)])
             for s in range(quotient.dim)]
        )
        d = math.isqrt(ideal_rank)
        if d * d != ideal_rank:
            raise NonSplitCoradicalError(
                "non-split coradical; extend scalars (a simple component has "
                f"dimension {ideal_rank}, not a perfect square)"
            )
        subspace = _component_subspace(c, e, c0_basis)
        if len(subspace) != ideal_rank:
            raise AssertionError("component subspace rank mismatch")
        grouplike = None
        if d == 1:
            v = [Fraction(x) for x in subspace[0]]
            eps = sum(c.counit[i] * v[i] for i in range(c.dim))
            if eps == 0:
                raise AssertionError("grouplike component with vanishing counit")
            grouplike = tuple(x / eps for x in v)
        raw.append((d, tuple(tuple(r) for r in subspace), tuple(e), grouplike))
    if sum(d * d for d, _s, _e, _g in raw) != len(c0_basis):
        raise AssertionError("central idempotents do not fill the coradical")
    raw.sort(key=lambda t: (t[0], t[1]))
    comps = []
    counters = {"g": 0, "s": 0}
    used = set()
    for d, _sig, e, grouplike in raw:
        if grouplike is not None:
            label = None
            for i, x in enumerate(grouplike):
                if x == 1 and all(y == 0 for t, y in enumerate(grouplike) if t != i):
                    label = c.basis[i]
                    break
            if label is None or label in used:
                label = f"g{counters['g']}"
            counters["g"] += 1
        else:
            label = f"s{counters['s']}"
            counters["s"] += 1
        while label in used:
            label += "'"
        used.add(label)
        comps.append(SimpleComponent(label, d, e, grouplike))
    comps.sort(key=lambda s: (s.d, s.label))
    return comps


def q_table(
    c: Coalgebra, comps: list[SimpleComponent], chain: FiltrationChain
) -> dict[tuple[int, str, str], int]:
    """Isotypic dimensions of the filtration quotients of c.

    (n, tau, mu) -> dimension of the part of C_n/C_{n-1} whose left coaction
    lands in component tau and right coaction in component mu; computed as the
    rank of the composed hit-action projectors modulo C_{n-1}.  Zero entries
    are omitted.
    """
    table: dict[tuple[int, str, str], int] = {}
    left_mats = {s.label: _left_hit(c, list(s.idempotent)) for s in comps}
    right_mats = {s.label: _right_hit(c, list(s.idempotent)) for s in comps}
    for n in range(1, len(chain)):
        below = [list(v) for v in chain.bases[n - 1]]
        ech_below, piv_below = linalg.echelon(below)
        level = [[Fraction(t) for t in v] for v in chain.bases[n]]
        jump = len(chain.bases[n]) - len(chain.bases[n - 1])
        seen = 0
        for tau in comps:
            lm = left_mats[tau.label]
            for mu in comps:
                rm = right_mats[mu.label]
                images = [_mat_apply(lm, _mat_apply(rm, v)) for v in level]
                q = linalg.rank(list(ech_below) + images) - len(ech_below)
                if q:
                    table[(n, tau.label, mu.label)] = q
                    seen += q
        if seen != jump:
            raise AssertionError("isotypic dimensions do not fill the quotient")
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
        from .blocks import serialize_block_system
        from .coalgebra import _frac_str
        import json as _json

        return {
            "components": [
                {
                    "label": s.label,
                    "d": s.d,
                    "dim": s.dim,
                    "grouplike": s.is_grouplike,
                    "idempotent": [_frac_str(x) for x in s.idempotent],
                    "element": (
                        [_frac_str(x) for x in s.grouplike] if s.grouplike else None
                    ),
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
            "block_system": _json.loads(serialize_block_system(self.block_system)),
            "rule_report": [
                {
                    "rule": v.rule,
                    "indices": [[i.level, i.d1, i.d2] for i in v.indices],
                    "message": v.message,
                }
                for v in self.rule_report
            ],
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


def analyze(c: Coalgebra, flags) -> AnalysisResult:
    """Full pipeline: validate, decompose once per stage, aggregate, rule-check.

    Raises CoalgebraInvalidError for axiom failures and NonSplitCoradicalError
    when the coradical does not split over Q.
    """
    failures = validate(c)
    if failures:
        raise CoalgebraInvalidError("; ".join(failures))
    a = dual_algebra(c)
    j_basis = radical(a)
    chain = coradical_filtration(a, j_basis)
    comps = simple_components(c, a, j_basis, chain.bases[0])
    table = q_table(c, comps, chain)
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


def filtration_is_compatible(c: Coalgebra, chain: FiltrationChain) -> bool:
    """Verify Delta(C_n) lies in sum_i C_i (x) C_{n-i}, exactly."""
    n_dim = c.dim
    for n in range(len(chain)):
        target_rows = []
        for i in range(n + 1):
            for u in chain.bases[i]:
                for v in chain.bases[n - i]:
                    row = [0] * (n_dim * n_dim)
                    for s, us in enumerate(u):
                        if us:
                            for t, vt in enumerate(v):
                                if vt:
                                    row[s * n_dim + t] = us * vt
                    target_rows.append(row)
        ech, piv = linalg.echelon(target_rows)
        for w in chain.bases[n]:
            image = [ZERO] * (n_dim * n_dim)
            for i, wi in enumerate(w):
                if wi:
                    for (i0, j, k, coeff) in c.delta:
                        if i0 == i:
                            image[j * n_dim + k] += wi * coeff
            if not linalg.in_span(image, ech, piv):
                return False
    return True

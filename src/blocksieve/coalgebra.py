"""Finite-dimensional coalgebras over Q given by structure constants.

A coalgebra is a basis, a comultiplication table Delta(e_i) = sum of
coefficient * e_j (x) e_k, and a counit vector.  Everything is exact: all
coefficients are rationals.  The dual of a coalgebra is an associative
algebra on the dual basis, with multiplication constants obtained by
transposing the comultiplication constants; that duality is how the analyzer
reaches the coradical.

Both tables stay sparse: the dual algebra keeps exactly the nonzero entries
of delta, and the coassociativity check runs over delta scaled to integers
by the lcm of its denominators.  Scaling by one positive integer changes no
verdict, so exactness is unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .linalg import integral


class CoalgebraParseError(ValueError):
    """Malformed coalgebra JSON."""


def _frac(x, where: str) -> Fraction:
    if isinstance(x, bool):
        raise CoalgebraParseError(f"{where}: coefficients must be rationals, got {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise CoalgebraParseError(f"{where}: bad rational {x!r}: {exc}") from exc
    raise CoalgebraParseError(
        f"{where}: coefficients must be 'p/q' strings or integers, got {type(x).__name__}"
    )


def _frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class Coalgebra:
    """dim, basis labels, sparse comultiplication constants, counit values.

    delta holds quadruples (i, j, k, c) meaning Delta(e_i) contains c*e_j(x)e_k.
    Construction normalizes coefficients to Fraction and sorts the table; it
    does not verify the coalgebra axioms, that is validate()'s job.
    """

    dim: int
    basis: tuple[str, ...]
    delta: tuple[tuple[int, int, int, Fraction], ...]
    counit: tuple[Fraction, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if len(self.basis) != self.dim:
            raise ValueError("basis labels must match dim")
        if len(self.counit) != self.dim:
            raise ValueError("counit vector must match dim")
        object.__setattr__(self, "basis", tuple(str(s) for s in self.basis))
        object.__setattr__(self, "counit", tuple(Fraction(x) for x in self.counit))
        seen = set()
        norm = []
        for (i, j, k, c) in self.delta:
            if not all(0 <= t < self.dim for t in (i, j, k)):
                raise ValueError(f"delta entry ({i},{j},{k}) out of range")
            if (i, j, k) in seen:
                raise ValueError(f"duplicate delta entry ({i},{j},{k})")
            seen.add((i, j, k))
            c = Fraction(c)
            if c == 0:
                raise ValueError(f"zero coefficient at delta entry ({i},{j},{k})")
            norm.append((i, j, k, c))
        object.__setattr__(self, "delta", tuple(sorted(norm)))

    def delta_of(self, i: int) -> dict[tuple[int, int], Fraction]:
        """Comultiplication of the i-th basis vector as {(j, k): coefficient}."""
        return {(j, k): c for (i0, j, k, c) in self.delta if i0 == i}


def validate(c: Coalgebra) -> list[str]:
    """Check coassociativity and the counit law exactly.

    Returns [] when both axioms hold; otherwise one message per broken axiom
    naming the first basis index where it fails.  Failures are data, not
    errors.  Both laws are checked on delta scaled to integers by the lcm D
    of its denominators: each side of coassociativity scales by D^2 and each
    side of the counit law by D, so the verdicts are those of the rationals.
    """
    n = c.dim
    den, scaled = integral([x for (_i, _j, _k, x) in c.delta])
    rows: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for (i, j, k, _x), x in zip(c.delta, scaled):
        rows[i].append((j, k, x))
    failures: list[str] = []

    for i in range(n):
        # (Delta (x) id) Delta vs (id (x) Delta) Delta on e_i
        lhs: dict[tuple[int, int, int], int] = {}
        rhs: dict[tuple[int, int, int], int] = {}
        for j, k, x in rows[i]:
            for a, b, y in rows[j]:
                key = (a, b, k)
                lhs[key] = lhs.get(key, 0) + x * y
            for u, v, y in rows[k]:
                key = (j, u, v)
                rhs[key] = rhs.get(key, 0) + x * y
        if any(lhs.get(t, 0) != rhs.get(t, 0) for t in lhs.keys() | rhs.keys()):
            failures.append(
                f"coassociativity fails at basis index {i} ({c.basis[i]})"
            )
            break
    for i in range(n):
        left: list = [0] * n
        right: list = [0] * n
        for j, k, x in rows[i]:
            left[k] += x * c.counit[j]
            right[j] += x * c.counit[k]
        want = [den if t == i else 0 for t in range(n)]
        if left != want or right != want:
            failures.append(f"counit law fails at basis index {i} ({c.basis[i]})")
            break
    return failures


@dataclass(frozen=True)
class Algebra:
    """Associative algebra by sparse multiplication constants.

    mult[j] maps k to the nonzero terms of e_j * e_k as (i, c) pairs, meaning
    e_j * e_k = sum of c * e_i; a k with e_j * e_k = 0 is absent.  Constants
    are ints or Fractions.
    """

    dim: int
    mult: tuple[dict[int, tuple[tuple[int, Fraction | int], ...]], ...]
    unit: tuple[Fraction, ...]

    def multiply(self, x, y) -> list:
        """x * y on coordinate vectors, touching only the constants of x's support.

        Integer inputs and integer constants give an integer result.
        """
        out: list = [0] * self.dim
        for j, xj in enumerate(x):
            if not xj:
                continue
            for k, terms in self.mult[j].items():
                yk = y[k]
                if yk:
                    s = xj * yk
                    for i, cst in terms:
                        out[i] += s * cst
        return out

    def is_associative(self) -> bool:
        n = self.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    ei = [Fraction(1 if t == i else 0) for t in range(n)]
                    ej = [Fraction(1 if t == j else 0) for t in range(n)]
                    ek = [Fraction(1 if t == k else 0) for t in range(n)]
                    if self.multiply(self.multiply(ei, ej), ek) != self.multiply(
                        ei, self.multiply(ej, ek)
                    ):
                        return False
        return True


def dual_algebra(c: Coalgebra) -> Algebra:
    """Convolution algebra on the dual basis: (f*h)(x) = (f (x) h)(Delta x).

    The multiplication constants are the comultiplication constants read
    backwards, e_j * e_k = sum over delta entries (i, j, k, c) of c * e_i, so
    the algebra holds exactly len(c.delta) constants; integral ones are
    stored as ints.  The counit becomes the unit.  Coassociativity of the
    input transposes to associativity of the output.
    """
    rows: list[dict[int, list]] = [{} for _ in range(c.dim)]
    for (i, j, k, x) in c.delta:
        rows[j].setdefault(k, []).append((i, x.numerator if x.denominator == 1 else x))
    return Algebra(
        c.dim,
        tuple({k: tuple(terms) for k, terms in row.items()} for row in rows),
        tuple(c.counit),
    )


def tensor_product(c1: Coalgebra, c2: Coalgebra) -> Coalgebra:
    """Tensor-product coalgebra on pairs of basis vectors."""
    n1, n2 = c1.dim, c2.dim

    def pair(i, j):
        return i * n2 + j

    basis = tuple(f"{a}⊗{b}" for a in c1.basis for b in c2.basis)
    delta = []
    for i1 in range(n1):
        t1 = c1.delta_of(i1)
        for i2 in range(n2):
            t2 = c2.delta_of(i2)
            acc: dict[tuple[int, int], Fraction] = {}
            for (j1, k1), a in t1.items():
                for (j2, k2), b in t2.items():
                    key = (pair(j1, j2), pair(k1, k2))
                    acc[key] = acc.get(key, Fraction(0)) + a * b
            for (j, k), v in acc.items():
                if v != 0:
                    delta.append((pair(i1, i2), j, k, v))
    counit = tuple(
        c1.counit[i1] * c2.counit[i2] for i1 in range(n1) for i2 in range(n2)
    )
    return Coalgebra(n1 * n2, basis, tuple(delta), counit)


def change_basis(c: Coalgebra, p_rows: list[list]) -> Coalgebra:
    """Rewrite c in the basis f_i = sum_j P[i][j] e_j; P must be invertible.

    Structure constants transform with one P and two inverse-P factors; the
    counit transforms with P alone.  Labels become f0, f1, ...
    """
    n = c.dim
    P = [[Fraction(x) for x in row] for row in p_rows]
    if len(P) != n or any(len(row) != n for row in P):
        raise ValueError("change-of-basis matrix must be square of size dim")
    inv = _invert(P)
    if inv is None:
        raise ValueError("change-of-basis matrix is singular")
    delta = []
    for i in range(n):
        acc: dict[tuple[int, int], Fraction] = {}
        for j in range(n):
            if P[i][j] == 0:
                continue
            for (k, l), coeff in c.delta_of(j).items():
                w = P[i][j] * coeff
                for a in range(n):
                    if inv[k][a] == 0:
                        continue
                    for b in range(n):
                        if inv[l][b] == 0:
                            continue
                        key = (a, b)
                        acc[key] = acc.get(key, Fraction(0)) + w * inv[k][a] * inv[l][b]
        for (a, b), v in acc.items():
            if v != 0:
                delta.append((i, a, b, v))
    counit = tuple(
        sum(P[i][j] * c.counit[j] for j in range(n)) for i in range(n)
    )
    return Coalgebra(n, tuple(f"f{i}" for i in range(n)), tuple(delta), counit)


def _invert(P: list[list[Fraction]]) -> list[list[Fraction]] | None:
    n = len(P)
    aug = [list(P[i]) + [Fraction(1 if j == i else 0) for j in range(n)] for i in range(n)]
    col = 0
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        scale = aug[col][col]
        aug[col] = [x / scale for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


_TOP_KEYS = {"dim", "basis", "delta", "counit", "field"}


def parse_coalgebra(text: bytes | str) -> Coalgebra:
    """Parse coalgebra JSON: {"dim", "basis", "delta", "counit", "field": "Q"}.

    delta entries are [i, j, k, "p/q"] with 0-based indices; rationals are
    decimal-free "p/q" strings (plain integers are accepted).  Unknown fields
    are rejected.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CoalgebraParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise CoalgebraParseError("top level must be a JSON object")
    unknown = set(obj) - _TOP_KEYS
    if unknown:
        raise CoalgebraParseError(f"unknown fields rejected: {sorted(unknown)}")
    missing = _TOP_KEYS - set(obj)
    if missing:
        raise CoalgebraParseError(f"missing fields: {sorted(missing)}")
    if obj["field"] != "Q":
        raise CoalgebraParseError(f"only field 'Q' is supported, got {obj['field']!r}")
    dim = obj["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise CoalgebraParseError(f"dim must be a positive integer, got {dim!r}")
    basis = obj["basis"]
    if not isinstance(basis, list) or len(basis) != dim or not all(
        isinstance(s, str) for s in basis
    ):
        raise CoalgebraParseError("basis must be a list of dim strings")
    raw_delta = obj["delta"]
    if not isinstance(raw_delta, list):
        raise CoalgebraParseError("delta must be a list")
    delta = []
    for idx, entry in enumerate(raw_delta):
        where = f"delta[{idx}]"
        if not isinstance(entry, list) or len(entry) != 4:
            raise CoalgebraParseError(f"{where}: entries are [i, j, k, coeff]")
        i, j, k, coeff = entry
        for t in (i, j, k):
            if isinstance(t, bool) or not isinstance(t, int) or not 0 <= t < dim:
                raise CoalgebraParseError(f"{where}: index {t!r} out of range")
        delta.append((i, j, k, _frac(coeff, where)))
    raw_counit = obj["counit"]
    if not isinstance(raw_counit, list) or len(raw_counit) != dim:
        raise CoalgebraParseError("counit must be a list of dim rationals")
    counit = tuple(_frac(x, f"counit[{i}]") for i, x in enumerate(raw_counit))
    try:
        return Coalgebra(dim, tuple(basis), tuple(delta), counit)
    except ValueError as exc:
        raise CoalgebraParseError(str(exc)) from exc


def serialize_coalgebra(c: Coalgebra) -> bytes:
    """Canonical JSON bytes; delta entries sorted, one per line."""
    basis = json.dumps(list(c.basis), ensure_ascii=False)
    counit = json.dumps([_frac_str(x) for x in c.counit])
    delta_lines = ",\n  ".join(
        json.dumps([i, j, k, _frac_str(v)]) for (i, j, k, v) in c.delta
    )
    text = (
        "{\n"
        f' "dim": {c.dim},\n'
        f' "basis": {basis},\n'
        f' "delta": [\n  {delta_lines}\n ],\n'
        f' "counit": {counit},\n'
        ' "field": "Q"\n'
        "}"
    )
    return text.encode("utf-8")

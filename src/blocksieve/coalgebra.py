"""Finite-dimensional coalgebras over Q given by structure constants.

A coalgebra is a basis, a comultiplication table Delta(e_i) = sum of
coefficient * e_j (x) e_k, and a counit vector.  Everything is exact: all
coefficients are rationals.  The dual of a coalgebra is an associative
algebra on the dual basis, with multiplication constants obtained by
transposing the comultiplication constants; that duality is how the analyzer
reaches the coradical.

Both tables stay sparse: the dual algebra keeps exactly the nonzero entries
of delta.  A coalgebra scales delta to integers once, at construction, by
the lcm D of its denominators (Coalgebra.integral_delta), and every stage
that works in integers reads that one table.  The dual algebra is built from it, with
product D times the convolution product and unit the counit over D.
validate checks both axioms on it and on the counit scaled by the lcm E
of its own denominators, so the sides of the counit law scale by D * E.
Scaling by one positive integer changes no verdict, so exactness is
unchanged.  Coassociativity packs each slice
(i, j) of the scaled table over its last index into one integer, so a
dense basis vector costs O(n^3) packed products, not O(n^4) scalar ones
(see validate for the digit bound that keeps the packed test exact).

Ingestion is checked in one place, Coalgebra(...); parse_coalgebra checks
the document and hands over the JSON lists as they are.  One scan over
delta in input order checks each entry and names the first bad one by its
position ("delta[3]: ..."); the counit is checked before it ("counit[1]: ...").
The scan converts each distinct constant once, and one sort and one
integral call then build delta and integral_delta.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .blocks import _json_object
from .linalg import echelon, integral


class CoalgebraParseError(ValueError):
    """Malformed coalgebra JSON."""


def _rational(x: str) -> Fraction:
    """x as a Fraction; a canonical "-?p" or "-?p/q" of decimal digits skips Fraction's regex.

    Every other string, signs and spaces included, goes to Fraction(x), so
    the result or the error is the one Fraction(x) gives.
    """
    num, slash, den = x.partition("/")
    if (num[1:] if num[:1] == "-" else num).isdecimal() and (not slash or den.isdecimal()):
        return Fraction(int(num), int(den) if slash else 1)
    return Fraction(x)


def _coefficient(x, where: str) -> Fraction:
    """x as a Fraction, or a ValueError naming where.

    A Fraction is kept as it is and a string goes through _rational.  A bool
    is refused, and so is a float, which Fraction would read at its binary
    value; anything else is Fraction(x), if Fraction takes it.  Every
    refusal but a bad string's has one message, whoever the caller.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        try:
            return _rational(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{where}: bad rational {x!r}: {exc}") from exc
    if not isinstance(x, (bool, float)):
        try:
            return Fraction(x)
        except (TypeError, ValueError, ArithmeticError):
            pass
    raise ValueError(f"{where}: coefficients must be exact rationals (integers, "
                     f"Fractions or 'p/q' strings), got {type(x).__name__}")


def _frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class Coalgebra:
    """dim, basis labels, sparse comultiplication constants, counit values.

    delta holds quadruples (i, j, k, c) meaning Delta(e_i) contains c*e_j(x)e_k.
    Construction is the one place delta and the counit are checked and
    delta is scaled: it converts values with _coefficient (counit first),
    sorts the table and sets integral_delta; it does not verify the
    coalgebra axioms, that is validate()'s job.  One scan checks the entries
    in input order (shape, indices, constant, duplicate, zero) and raises for
    the first bad one, named by its position ("delta[pos]: ...").  It
    converts each distinct str, int or Fraction constant once, and a
    constant of any other type at each entry.

    integral_delta is (D, delta with each constant times D), D the lcm of
    delta's denominators: the one table for every stage that needs delta
    in integers.  It is derived from delta, so equality and repr skip it.
    """

    dim: int
    basis: tuple[str, ...]
    delta: tuple[tuple[int, int, int, Fraction], ...]
    counit: tuple[Fraction, ...]
    integral_delta: tuple[int, tuple[tuple[int, int, int, int], ...]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if type(self.dim) is not int:
            raise ValueError(f"dim must be an int, got {self.dim!r}")
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if len(self.basis) != self.dim:
            raise ValueError("basis labels must match dim")
        if len(self.counit) != self.dim:
            raise ValueError("counit vector must match dim")
        object.__setattr__(self, "basis", tuple(str(s) for s in self.basis))
        object.__setattr__(self, "counit", tuple(
            _coefficient(x, f"counit[{i}]") for i, x in enumerate(self.counit)))
        # One scan in input order names the first bad entry.  A constant of
        # exact type str, int or Fraction is converted once per distinct value,
        # in a memo per type (True == 1); any other type entry by entry.
        n = self.dim
        memos = {str: {}, int: {}, Fraction: {}}
        values: list[Fraction] = []
        seen = set()
        rows = []  # (i, j, k, index of the constant in values)
        for pos, entry in enumerate(self.delta):
            if not isinstance(entry, (tuple, list)) or len(entry) != 4:
                raise ValueError(f"delta[{pos}]: entries are [i, j, k, coeff]")
            i, j, k, c = entry
            for t in (i, j, k):
                if type(t) is not int or not 0 <= t < n:
                    raise ValueError(f"delta[{pos}]: index {t!r} out of range")
            memo = memos.get(type(c))
            p = None if memo is None else memo.get(c)
            if p is None:
                p = len(values)
                values.append(_coefficient(c, f"delta[{pos}]"))
                if memo is not None:
                    memo[c] = p
            key = (i, j, k)
            if key in seen:
                raise ValueError(f"delta[{pos}]: duplicate delta entry ({i},{j},{k})")
            if not values[p]:
                raise ValueError(f"delta[{pos}]: zero coefficient at delta entry ({i},{j},{k})")
            seen.add(key)
            rows.append((i, j, k, p))
        den, ints = integral(values)
        rows.sort()
        ii, jj, kk, ps = zip(*rows) if rows else ((),) * 4
        object.__setattr__(self, "delta", tuple(zip(ii, jj, kk, map(values.__getitem__, ps))))
        object.__setattr__(self, "integral_delta",
                           (den, tuple(zip(ii, jj, kk, map(ints.__getitem__, ps)))))


def validate(c: Coalgebra) -> list[str]:
    """Check coassociativity and the counit law exactly.

    Returns [] when both axioms hold; otherwise one message per broken axiom
    naming the first basis index where it fails.  Failures are data, not
    errors.  Both laws run in integers: on c.integral_delta, delta scaled by
    the lcm D of its denominators, and on the counit scaled by the lcm E of
    its own, so each side of coassociativity scales by D^2 and each side of
    the counit law by D * E, and the verdicts are those of the rationals.
    The counit law at e_i is compared over the terms of Delta e_i alone, so
    it costs O(|delta|) in all, not O(n^2).

    Coassociativity runs on packed slices (Kronecker substitution).  With
    x_ijk the scaled constants, slice (i, j) is packed over its last index
    as the integer P_ij = sum_c x_ijc * 2^(w*c).  At e_i the coefficient of
    e_a (x) e_b (x) e_c is sum_j x_jab * x_ijc on the (Delta (x) id) Delta
    side and sum_k x_iak * x_kbc on the (id (x) Delta) Delta side, so one
    dict keyed by a * n + b accumulates sum_j x_jab * P_ij - sum_k x_iak * P_kb,
    whose base-2^w digits (signed) are the differences over c.  A digit is
    a sum of at most 2n products of two constants, so its absolute value is
    at most 2n * X^2 < 2^(w-1) with X = max |x| and
    w = 2 * bitlen(X) + bitlen(n) + 2; a sum of such signed digits times
    distinct powers of 2^w is 0 only when every digit is 0 (the lowest
    nonzero digit is not a multiple of 2^w).  So the axiom holds at i iff
    every accumulated value is 0.
    """
    n = c.dim
    den, delta = c.integral_delta
    top = max(map(abs, list(zip(*delta))[3])) if delta else 0
    w = 2 * top.bit_length() + n.bit_length() + 2
    rows: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    packed: list[dict[int, int]] = [{} for _ in range(n)]
    for i, j, k, x in delta:
        rows[i].append((j, k, x))
        p = packed[i]
        p[j] = p.get(j, 0) + (x << (w * k))
    failures: list[str] = []

    # a term (a, b, y) of row j pairs with P_ij at key a*n + b; a term
    # (a, k, x) of row i pairs with each slice P_kb at key a*n + b
    keyed = [[(a * n + b, y) for a, b, y in row] for row in rows]
    slices = [list(p.items()) for p in packed]
    for i in range(n):
        acc: dict[int, int] = {}
        for j, p in slices[i]:
            for key, y in keyed[j]:
                acc[key] = acc.get(key, 0) + y * p
        for a, k, x in rows[i]:
            an = a * n
            for b, p in slices[k]:
                key = an + b
                acc[key] = acc.get(key, 0) - x * p
        if any(acc.values()):
            failures.append(
                f"coassociativity fails at basis index {i} ({c.basis[i]})"
            )
            break
    # (eps (x) id) Delta e_i and (id (x) eps) Delta e_i, over the row's own
    # terms: each must be unit * e_i, so its nonzero entries are {i: unit}
    counit_den, eps = integral(c.counit)
    unit = den * counit_den
    for i in range(n):
        left: dict[int, int] = {}
        right: dict[int, int] = {}
        for j, k, x in rows[i]:
            if eps[j]:
                left[k] = left.get(k, 0) + x * eps[j]
            if eps[k]:
                right[j] = right.get(j, 0) + x * eps[k]
        want = {i: unit}
        if ({t: y for t, y in left.items() if y} != want
                or {t: y for t, y in right.items() if y} != want):
            failures.append(f"counit law fails at basis index {i} ({c.basis[i]})")
            break
    return failures


@dataclass(frozen=True)
class Algebra:
    """Associative algebra by sparse multiplication constants.

    mult[j] maps k to the nonzero terms of e_j * e_k as (i, c) pairs, meaning
    e_j * e_k = sum of c * e_i; a k with e_j * e_k = 0 is absent.  Constants
    are ints or Fractions; the analyzer's algebras hold ints.  An algebra
    whose product is D * (x * y) for a positive integer D, as dual_algebra
    builds it, is isomorphic to the one with product x * y through
    x -> x / D: its unit is the unit divided by D, its idempotents are
    divided by D, and every subspace the product defines (radical, its
    powers, center, ideals) is the same.
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


def dual_algebra(c: Coalgebra) -> Algebra:
    """Convolution algebra on the dual basis, (f*h)(x) = (f (x) h)(Delta x), in integers.

    The multiplication constants are the comultiplication constants read
    backwards, from c.integral_delta: e_j * e_k = sum over delta entries
    (i, j, k, c) of D * c * e_i, with D the lcm of delta's denominators, so
    the algebra holds exactly len(c.delta) int constants and its product is
    D times the convolution product.  Its unit is therefore the counit
    divided by D (see Algebra).  Coassociativity of the input transposes to
    associativity of the output.
    """
    den, delta = c.integral_delta
    rows: list[dict[int, list]] = [{} for _ in range(c.dim)]
    for (i, j, k, x) in delta:
        rows[j].setdefault(k, []).append((i, x))
    return Algebra(
        c.dim,
        tuple({k: tuple(terms) for k, terms in row.items()} for row in rows),
        tuple(x / den for x in c.counit),
    )


def tensor_product(c1: Coalgebra, c2: Coalgebra) -> Coalgebra:
    """Tensor-product coalgebra on pairs of basis vectors, e_i (x) e_j at i * c2.dim + j.

    Each pair of delta entries gives one entry, the product of their
    constants.  Distinct pairs give distinct index triples, so no two terms
    meet and none vanishes.
    """
    n2 = c2.dim
    basis = tuple(f"{a}⊗{b}" for a in c1.basis for b in c2.basis)
    delta = tuple(
        (i1 * n2 + i2, j1 * n2 + j2, k1 * n2 + k2, a * b)
        for (i1, j1, k1, a) in c1.delta for (i2, j2, k2, b) in c2.delta
    )
    counit = tuple(x * y for x in c1.counit for y in c2.counit)
    return Coalgebra(c1.dim * n2, basis, delta, counit)


def change_basis(c: Coalgebra, p_rows: list[list]) -> Coalgebra:
    """Rewrite c in the basis f_i = sum_j P[i][j] e_j; P must be invertible.

    Structure constants transform with one P and two inverse-P factors; the
    counit transforms with P alone.  Labels become f0, f1, ...  The inverse
    is the echelon form of [P | I]: with P invertible its pivots are the
    first n columns, and row k is (d_k e_k | d_k * row k of P^-1) with
    d_k > 0, so the inverse needs no fraction until the constants are summed.
    """
    n = c.dim
    P = [[_coefficient(x, f"change-of-basis entry ({i},{j})") for j, x in enumerate(row)]
         for i, row in enumerate(p_rows)]
    if len(P) != n or any(len(row) != n for row in P):
        raise ValueError("change-of-basis matrix must be square of size dim")
    ech, pivots = echelon([row + [int(i == j) for j in range(n)] for i, row in enumerate(P)])
    if pivots != list(range(n)):
        raise ValueError("change-of-basis matrix is singular")
    inv = [r[n:] for r in ech]
    rows: list[list[tuple[int, int, Fraction]]] = [[] for _ in range(n)]
    for j, k, l, coeff in c.delta:
        rows[j].append((k, l, coeff))
    delta = []
    for i in range(n):
        acc: dict[tuple[int, int], Fraction] = {}
        for j in range(n):
            if P[i][j] == 0:
                continue
            for k, l, coeff in rows[j]:
                w = P[i][j] * coeff / (ech[k][k] * ech[l][l])
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


_TOP_KEYS = frozenset({"dim", "basis", "delta", "counit", "field"})


def parse_coalgebra(text: bytes | str) -> Coalgebra:
    """Parse coalgebra JSON: {"dim", "basis", "delta", "counit", "field": "Q"}.

    delta entries are [i, j, k, "p/q"] with 0-based indices.  A rational is
    a JSON integer or any string Fraction(str) reads ("3/4", "-2", "2.5",
    "1e2", " 1"); a float or a bool is refused.  Unknown fields are
    rejected.  This checks the document's shape, through the JSON-document
    check parse_block_system also uses (so bytes that are not UTF-8 are
    refused as not valid JSON); the entries are checked by
    Coalgebra(...), whose ValueError, naming the first bad entry in input
    order by position, is raised again as CoalgebraParseError.
    """
    obj = _json_object(text, _TOP_KEYS, CoalgebraParseError)
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
    raw_counit = obj["counit"]
    if not isinstance(raw_counit, list) or len(raw_counit) != dim:
        raise CoalgebraParseError("counit must be a list of dim rationals")
    try:
        return Coalgebra(dim, tuple(basis), raw_delta, raw_counit)
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

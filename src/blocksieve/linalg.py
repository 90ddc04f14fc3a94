"""Exact linear algebra over the rationals, on one integer normal form.

A rational row is one positive integer scale times a primitive integer row
(content 1, first nonzero entry positive): integral() finds the scale and
primitive() the row, and no other module makes that decision.  Elimination,
kernels, coordinates and inverses then run on integers only, by
cross-multiplication, in one elimination loop, residue()'s: echelon folds
its rows into extend_echelon one at a time and reduced() orders and clears
the result once.  The primitive reduced echelon form of a row space does
not depend on the order its rows arrive in, so outputs are deterministic
and equal to those of rational arithmetic.  Each subspace is eliminated
once: nullspace reads its kernel basis off the caller's echelon form, and
a kernel vector's own coordinate, the one no other basis vector uses, is
its last nonzero one.  The polynomial toolkit below is integral too: the
rational roots of a squarefree polynomial come from Hensel lifting, so
that fully split polynomials never require factoring their (potentially
huge) constant terms.  Fraction appears only in the roots it returns.
"""

from __future__ import annotations

import math
from fractions import Fraction


def integral(values) -> tuple[int, list[int]]:
    """(D, D * values) for the least positive integer D making every value integral.

    values is a sequence of ints and Fractions.  Scaling a row or a table by
    one positive D changes no span, rank or sign, so exact kernels can run on
    the integers instead.
    """
    den = math.lcm(*(x.denominator for x in values))
    if den == 1:
        return 1, [x.numerator for x in values]
    return den, [x.numerator * (den // x.denominator) for x in values]


def primitive(row: list[int]) -> list[int]:
    """row divided by its content, signed so that its first nonzero entry is positive."""
    g = 0
    for x in row:
        g = math.gcd(g, x)
        if g == 1:
            break
    if g > 1:
        row = [x // g for x in row]
    for x in row:
        if x != 0:
            if x < 0:
                row = [-y for y in row]
            break
    return row


def echelon(rows) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form: extend_echelon over the rows, then reduced().

    Returns (reduced rows, pivot column indices).  Zero rows are dropped, each
    surviving row is primitive with positive leading entry, and entries above
    pivots are eliminated too, so the result is a canonical basis of the row
    space, whatever the rows' order.  Rows are sequences of ints and Fractions.
    """
    ech: list[list[int]] = []
    pivots: list[int] = []
    for r in rows:
        # rows of ints, such as products of integer vectors, need no scaling
        extend_echelon(ech, pivots, list(r) if all(type(x) is int for x in r) else integral(r)[1])
    return reduced(ech, pivots)


def residue(v, ech: list[list[int]], pivots: list[int]) -> list[int]:
    """Residual of an integer v after eliminating every pivot coordinate.

    ech is an echelon form whose rows are zero at the pivots before their
    own, as extend_echelon builds it.  Each step is
    v -> (p/g) * v - (v_p/g) * row with p the row's positive pivot entry and
    g = gcd(p, v_p), so the result is a positive multiple of the rational
    residual: the same zero pattern and span, without a fraction.  This is
    the module's one elimination loop.
    """
    for r, col in zip(ech, pivots):
        x = v[col]
        if x:
            g = math.gcd(r[col], x)
            a, b = r[col] // g, x // g
            v = [a * s - b * t for s, t in zip(v, r)]
    return v


def extend_echelon(ech: list[list[int]], pivots: list[int], v) -> bool:
    """Append the residue of the integer v to ech if it is nonzero; return whether it was.

    The appended row is primitive, zero at every earlier pivot and pivoted
    at its first nonzero column, so ech and pivots stay in the form residue()
    needs, in arrival order, and a False return means v lies in their span.
    """
    row = residue(v, ech, pivots)
    if not any(row):
        return False
    ech.append(primitive(row))
    pivots.append(next(col for col, x in enumerate(row) if x))
    return True


def reduced(ech: list[list[int]], pivots: list[int]) -> tuple[list[list[int]], list[int]]:
    """echelon()'s form of the rows extend_echelon built, as new (rows, pivots).

    The rows are ordered by pivot and each pivot column is cleared from the
    rows above it, bottom-up: a row's residue against the reduced rows below
    it is a positive multiple of its reduced form, so its primitive part.
    """
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    rows = [ech[i] for i in order]
    cols = [pivots[i] for i in order]
    for k in range(len(rows) - 2, -1, -1):
        rows[k] = primitive(residue(rows[k], rows[k + 1:], cols[k + 1:]))
    return rows, cols


def nullspace(ech: list[list[int]], pivots: list[int], n: int) -> list[list[int]]:
    """Primitive integer basis of {x : M x = 0}, one vector per free column.

    ech and pivots are echelon(M)'s result and n is M's number of columns,
    so a caller that has eliminated M already does not eliminate it again.
    Free columns are processed in increasing order.  The echelon rows are
    zero at every other pivot column and before their own, so the vector of
    free column f has L at f and -r[f] * L / r[col] at the pivot col < f of
    each row r with r[f] != 0, where L is the lcm of those rows' pivot
    entries; dividing by the gcd leaves the unique primitive kernel vector
    positive at f.  So that vector is zero after f and is the only basis
    vector nonzero at f: f is its own coordinate, its last nonzero one.
    """
    is_pivot = set(pivots)
    basis = []
    for f in range(n):
        if f in is_pivot:
            continue
        involved = [(r, col) for r, col in zip(ech, pivots) if r[f]]
        lcm = math.lcm(*(r[col] for r, col in involved))
        x = [0] * n
        x[f] = lcm
        for r, col in involved:
            x[col] = -r[f] * (lcm // r[col])
        g = math.gcd(*x)
        basis.append([q // g for q in x])
    return basis


# -- rational roots of integer polynomials, coefficients ascending -----------


def _odd_primes():
    """3, 5, 7, 11, ... without end, by trial division."""
    n = 3
    while True:
        if all(n % q for q in range(3, math.isqrt(n) + 1, 2)):
            yield n
        n += 2


def _poly_mod(p: list[int], m: int) -> list[int]:
    return [c % m for c in p]


def _poly_eval_mod(p: list[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = (acc * x + c) % m
    return acc


def _rational_reconstruct(a: int, m: int, bound: int) -> tuple[int, int] | None:
    """p/q with p = a*q mod m, |p|, q <= bound; standard half-gcd descent."""
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


def rational_roots(p: list[int]) -> tuple[list[Fraction], bool]:
    """(all rational roots of p, whether p splits into linear factors over Q).

    p has integer coefficients, ascending, and is squarefree.  The analyzer's
    input is: its Krylov relation is the minimal polynomial of w = e'z in the
    semisimple algebra e'(A/J), and in characteristic 0 such a polynomial has
    no repeated factor.  Root extraction lifts the roots modulo the first odd
    prime that keeps them simple to high p-adic precision, all roots together
    one precision at a time, and reconstructs p/q, so no large integer is
    ever factored.  A p that repeats a root modulo every odd prime, as any p
    with a repeated rational root does, raises ValueError instead of
    searching forever.
    """
    p = [int(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    if not p:
        raise ValueError("zero polynomial has every root")
    if len(p) == 1:
        return [], True
    zero_roots: list[Fraction] = []
    if p[0] == 0:
        if p[1] == 0:
            raise ValueError("t^2 divides the polynomial; it is not squarefree")
        zero_roots.append(Fraction(0))
        p = p[1:]
    deg = len(p) - 1
    if deg == 0:
        return zero_roots, True
    if deg == 1:
        return sorted(zero_roots + [Fraction(-p[0], p[1])]), True
    lead = abs(p[-1])
    bound = lead + max(abs(c) for c in p)  # >= |p| and >= q for any root p/q
    dp_int = [i * p[i] for i in range(1, len(p))]

    def keeps_roots_simple(cand: int) -> bool:
        f, df = _poly_mod(p, cand), _poly_mod(dp_int, cand)
        return all(_poly_eval_mod(f, x, cand) or _poly_eval_mod(df, x, cand)
                   for x in range(cand))

    # the first odd prime that keeps the leading coefficient and leaves no
    # root repeated modulo it.  Every prime that fails divides
    # lead * disc(p) = +-Res(p, p'), which is nonzero when p is squarefree,
    # and by Hadamard's bound |Res(p, p')| <= deg^deg * (sum of c^2)^deg <
    # 2^limit; so once the failed primes multiply past 2^limit, p has a
    # repeated root
    failed, limit = 1, None
    for prime in _odd_primes():
        if p[-1] % prime and keeps_roots_simple(prime):
            break
        if limit is None:
            limit = deg * (deg.bit_length() + sum(c * c for c in p).bit_length())
        failed *= prime
        if failed.bit_length() > limit:
            raise ValueError("the polynomial has a repeated root; it is not squarefree")
    modulus_target = 2 * bound * bound + 1
    f_mod = _poly_mod(p, prime)
    residues = [x for x in range(prime) if _poly_eval_mod(f_mod, x, prime) == 0]
    # Newton steps for every residue together, one precision at a time; the
    # coefficients are reduced modulo each precision once, not once per root.
    # f(x) is 0 modulo m, so f'(x)^-1 is needed modulo m only
    m = prime
    while m < modulus_target:
        m_next = m * m
        f_mod, df_mod = _poly_mod(p, m_next), _poly_mod(dp_int, m)
        residues = [
            (x - _poly_eval_mod(f_mod, x, m_next)
             * pow(_poly_eval_mod(df_mod, x, m), -1, m)) % m_next
            for x in residues
        ]
        m = m_next
    found: list[Fraction] = []
    for x in residues:
        rec = _rational_reconstruct(x, m, bound)
        if rec is None:
            continue
        num, den = rec
        # p/q is a root iff sum of c_i * p^i * q^(deg-i) vanishes
        if sum(c * num**i * den ** (deg - i) for i, c in enumerate(p)) == 0:
            found.append(Fraction(num, den))
    found = sorted(set(found))
    fully_split = len(found) == deg
    return sorted(zero_roots + found), fully_split

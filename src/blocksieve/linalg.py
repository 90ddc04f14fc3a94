"""Exact linear algebra over the rationals.

Row operations run fraction-free on arbitrary-precision integers: rational
rows are scaled integral up front, elimination uses cross-multiplication, and
every row is divided by its content (gcd), which keeps entries small without
ever rounding.  Pivot selection always takes the lowest row index with a
nonzero entry in the current column, so all outputs are deterministic.

Also holds the small univariate-polynomial toolkit the analyzer needs:
rational-root extraction via Hensel lifting, so that fully split polynomials
never require factoring their (potentially huge) constant terms.
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


def _scale_integral(row) -> list[int]:
    return _reduce_content(integral(row)[1])


def _reduce_content(row: list[int]) -> list[int]:
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
    """Fraction-free row echelon form.

    Returns (reduced rows, pivot column indices).  Zero rows are dropped, each
    surviving row has content 1 and positive leading entry, and entries above
    pivots are eliminated too, so the result is a canonical basis of the row
    space.
    """
    work = [_scale_integral(list(r)) for r in rows if any(r)]
    if not work:
        return [], []
    ncols = len(work[0])
    out: list[list[int]] = []
    pivots: list[int] = []
    for col in range(ncols):
        src = None
        for i, r in enumerate(work):
            if r[col] != 0:
                src = i
                break
        if src is None:
            continue
        piv = work.pop(src)
        rest = []
        for r in work:
            if r[col] != 0:
                r = _reduce_content([piv[col] * r[j] - r[col] * piv[j] for j in range(ncols)])
                if not any(r):
                    continue
            rest.append(r)
        work = rest
        # eliminate this column from the rows already in echelon position
        for k, r in enumerate(out):
            if r[col] != 0:
                out[k] = _reduce_content(
                    [piv[col] * r[j] - r[col] * piv[j] for j in range(ncols)]
                )
        out.append(piv)
        pivots.append(col)
        if not work:
            break
    return out, pivots


def rank(rows) -> int:
    return len(echelon(rows)[0])


def reduce_against(v, ech: list[list[int]], pivots: list[int]) -> list[Fraction]:
    """Residual of v after eliminating every pivot coordinate; exact rationals."""
    out = [Fraction(x) for x in v]
    for r, col in zip(ech, pivots):
        if out[col] != 0:
            c = out[col] / r[col]
            out = [a - c * b for a, b in zip(out, r)]
    return out


def residue(v, ech: list[list[int]], pivots: list[int]) -> list[int]:
    """reduce_against for an integer v, fraction-free.

    Each step is v -> (p/g) * v - (v_p/g) * row with p the row's positive
    pivot entry and g = gcd(p, v_p), so the result is a positive multiple of
    reduce_against(v, ech, pivots): the same zero pattern and span.
    """
    for r, col in zip(ech, pivots):
        x = v[col]
        if x:
            g = math.gcd(r[col], x)
            a, b = r[col] // g, x // g
            v = [a * s - b * t for s, t in zip(v, r)]
    return v


def in_span(v, ech: list[list[int]], pivots: list[int]) -> bool:
    return not any(reduce_against(v, ech, pivots))


def nullspace(rows, ncols: int | None = None) -> list[list[int]]:
    """Primitive integer basis of {x : M x = 0}, one vector per free column.

    Deterministic: free columns are processed in increasing order and each
    basis vector is content-reduced with positive entry at its free column.
    """
    rows = [list(r) for r in rows]
    if not rows:
        if ncols is None:
            raise ValueError("ncols required for an empty matrix")
        return [[1 if j == i else 0 for j in range(ncols)] for i in range(ncols)]
    n = len(rows[0])
    ech, pivots = echelon(rows)
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for f in free:
        x = [Fraction(0)] * n
        x[f] = Fraction(1)
        # echelon rows are zero at every other pivot column, so each pivot
        # coordinate is read off its own row
        for r, col in zip(ech, pivots):
            x[col] = Fraction(-r[f], r[col])
        den = 1
        for q in x:
            den = den * q.denominator // math.gcd(den, q.denominator)
        ix = [int(q * den) for q in x]
        g = 0
        for q in ix:
            g = math.gcd(g, q)
        ix = [q // g for q in ix]
        if ix[f] < 0:
            ix = [-q for q in ix]
        basis.append(ix)
    return basis


def solve_coords(basis_rows, v) -> list[Fraction] | None:
    """Coefficients expressing v in the given (independent) rows, or None."""
    if not basis_rows:
        return [] if not any(v) else None
    n = len(basis_rows[0])
    k = len(basis_rows)
    # augmented system over the transpose: sum_i c_i basis[i] = v
    aug = [[Fraction(basis_rows[i][j]) for i in range(k)] + [Fraction(v[j])] for j in range(n)]
    ech, pivots = echelon(aug)
    coeffs: list[Fraction] = [Fraction(0)] * k
    for r, col in zip(ech, pivots):
        if col == k:
            return None  # inconsistent
        coeffs[col] = Fraction(r[k], r[col])  # r is zero at the other pivots
    return coeffs


# -- polynomials over Q, coefficients ascending ------------------------------


def poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_divmod(p, q):
    p = [Fraction(x) for x in p]
    q = [Fraction(x) for x in q]
    poly_trim(p), poly_trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    while len(p) >= len(q):
        c = p[-1] / q[-1]
        k = len(p) - len(q)
        quot[k] = c
        for i, b in enumerate(q):
            p[i + k] -= c * b
        poly_trim(p)
    return poly_trim(quot), p


def poly_gcd(p, q):
    p = poly_trim([Fraction(x) for x in p])
    q = poly_trim([Fraction(x) for x in q])
    while q:
        p, q = q, poly_divmod(p, q)[1]
    if p:
        lead = p[-1]
        p = [x / lead for x in p]
    return p


def poly_deriv(p):
    return poly_trim([Fraction(i) * p[i] for i in range(1, len(p))])


def poly_eval(p, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_int(p) -> list[int]:
    """Clear denominators and content; primitive integer coefficients."""
    den = 1
    for c in p:
        den = den * c.denominator // math.gcd(den, c.denominator)
    out = [int(c * den) for c in p]
    g = 0
    for c in out:
        g = math.gcd(g, c)
    if g > 1:
        out = [c // g for c in out]
    if out and out[-1] < 0:
        out = [-c for c in out]
    return out


# -- rational roots by Hensel lifting ----------------------------------------

_SMALL_PRIMES = [
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
    73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
]


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

    p has integer coefficients, ascending.  Multiplicities are ignored: roots
    come from the squarefree part.  Root extraction lifts the roots modulo a
    small prime to high p-adic precision and reconstructs p/q, so no large
    integer is ever factored.
    """
    p = [int(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    if not p:
        raise ValueError("zero polynomial has every root")
    if len(p) == 1:
        return [], True
    frac = [Fraction(c) for c in p]
    sqfree = poly_int(poly_divmod(frac, poly_gcd(frac, poly_deriv(frac)))[0])
    zero_roots: list[Fraction] = []
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
    lead = abs(sqfree[-1])
    bound = lead + max(abs(c) for c in sqfree)  # >= |p| and >= q for any root p/q
    prime = None
    for cand in _SMALL_PRIMES:
        if sqfree[-1] % cand == 0:
            continue
        dp = [(i * sqfree[i]) % cand for i in range(1, len(sqfree))]
        # squarefree mod cand iff gcd(f, f') = 1 there; test by common roots
        # plus degree drop of the derivative
        if all(
            _poly_eval_mod(sqfree, x, cand) != 0 or _poly_eval_mod(dp, x, cand) % cand != 0
            for x in range(cand)
        ):
            prime = cand
            break
    if prime is None:
        raise ArithmeticError("no small prime keeps the polynomial squarefree")
    modulus_target = 2 * bound * bound + 1
    residues = [x for x in range(prime) if _poly_eval_mod(sqfree, x, prime) == 0]
    dp_int = [i * sqfree[i] for i in range(1, len(sqfree))]
    found: list[Fraction] = []
    for x in residues:
        m = prime
        while m < modulus_target:
            m_next = m * m
            fx = _poly_eval_mod(sqfree, x, m_next)
            dfx = _poly_eval_mod(dp_int, x, m_next)
            inv = pow(dfx, -1, m_next)
            x = (x - fx * inv) % m_next
            m = m_next
        rec = _rational_reconstruct(x, m, bound)
        if rec is None:
            continue
        cand = Fraction(rec[0], rec[1])
        if poly_eval([Fraction(c) for c in sqfree], cand) == 0:
            found.append(cand)
    found = sorted(set(found))
    fully_split = len(found) == deg
    return sorted(zero_roots + found), fully_split

"""Naive exhaustive enumerator used to cross-validate the solver.

This module deliberately shares no rule code with the rule engine: the
checker below re-derives every condition from scratch over plain dictionaries.
The generator walks candidate systems as entry sequences in lexicographic
order; the structural facts it bakes in (entries are positive multiples of the
forced divisors, mirror pairs carry equal values, occupied levels are
contiguous, chains and coradical backing hold, no level-1 pointed block under
the no-skew-primitives flag) are each rules that both implementations enforce,
so pruning by them cannot change any verdict.  Every emitted candidate is
still checked in full by the independent pass.

A call is bounded by the work it does, as the solver is by its node cap: its
grid's cells plus its walk's placements may not pass STEP_CAP.  A grid past
the cap is refused before it is built, a walk at the placement that would
pass it.

Single-threaded by design; determinism over speed.
"""

from __future__ import annotations

import math

from .blocks import (
    FEASIBLE,
    INFEASIBLE,
    BlockSystem,
    Certificate,
    ModeFlags,
    _require,
    _require_int,
)

# Grid cells plus walk placements per call.  The largest use measured is
# 19,747, at (79, 1) under NCSS; criterion 7 needs at most 16,544 and the odd
# composite N <= 231 at most 17,368.  A refusal comes in about 4 s (Python
# 3.11, shared 2-vCPU host), as the solver's does under its default node cap.
STEP_CAP = 25_000


class OracleCapError(ValueError):
    """Refusal to run past the step cap."""


def _grid(N: int, r: int) -> tuple[int, int]:
    """(max_level, max_d), refused past STEP_CAP cells.  The cells only grow
    with max_d, so the d loop stops once they pass the cap; a grid has at
    least max_level cells, so one of more levels never enters the loop.

    A d with lcm(d^2, r) <= N - r is g * e, g = gcd(d, r), with e^2 * r <=
    lcm(d^2, r), so e^2 <= max_level, and r * g / h = lcm(g^2, r) <= N - r,
    h = gcd(g, r/g) with h^2 | r: d is at most max_level * isqrt(max_level)
    times the root of r's largest square divisor.  The loop divides r by
    each d it passes and knows that root, so it stops at the bound, once
    the cofactor left is below d^3 and has at most two prime factors."""
    max_level = max(N // r - 1, 0)
    max_d = d = 1
    cells = max_level
    cofactor, root, last = r, 1, None
    while (d + 1) ** 2 <= N and cells <= STEP_CAP and (last is None or d < last):
        d += 1
        if last is None:
            e = 0
            while cofactor % d == 0:
                cofactor, e = cofactor // d, e + 1
            root *= d ** (e // 2)
            if d * d * d > cofactor:
                q = math.isqrt(cofactor)
                last = max_level * math.isqrt(max_level) * root * (q if q * q == cofactor else 1)
        if math.lcm(d * d, r) <= N - r:
            max_d = d
            cells = (max_d - 1) + max_level * max_d**2
    if cells > STEP_CAP:
        least = "at least " if (d + 1) ** 2 <= N else ""
        raise OracleCapError(f"oracle refused: N={N}, r={r} has a grid of {least}{cells} "
                             f"cells, past the step cap of {STEP_CAP}")
    return max_level, max_d


def _divisor(cell: tuple[int, int, int], r: int) -> int:
    n, a, b = cell
    if n == 0:
        return math.lcm(a * a, r)
    if a == 1 and b == 1:
        return r
    if a == 1 or b == 1:
        return max(a, b) * r
    return math.lcm(a * b, r)


def _passes(entries: dict[tuple[int, int, int], int], r: int, nsp: bool, ncss: bool) -> bool:
    """Full independent rule check of one candidate; True when every rule holds."""
    levels: dict[int, dict[tuple[int, int], int]] = {}
    for (n, a, b), v in entries.items():
        levels.setdefault(n, {})[(a, b)] = v
    top = max(levels)

    # coradical structure and divisibility
    if entries.get((0, 1, 1)) != r:
        return False
    for (a, b), v in levels.get(0, {}).items():
        if a != b or v <= 0 or v % (a * a) != 0:
            return False
    for (n, a, b), v in entries.items():
        if v % r != 0:
            return False
        if n >= 1:
            if v % (a * b) != 0:
                return False
            if (a == 1 or b == 1) and v % (max(a, b) * r) != 0:
                return False

    # mirror symmetry
    for (n, a, b), v in entries.items():
        if n >= 1 and a != b and entries.get((n, b, a), 0) != v:
            return False

    # contiguity of occupied levels
    for n in range(1, top + 1):
        if n not in levels:
            return False

    # chains through intermediate levels
    for (n, a, b) in entries:
        if n > 1:
            for i in range(1, n):
                found = False
                for (x, y) in levels.get(i, {}):
                    if x == a and (y, b) in levels.get(n - i, {}):
                        found = True
                        break
                if not found:
                    return False

    # off-diagonal escalation
    for (n, a, b) in entries:
        if n >= 1 and a != b:
            if not any(
                m > n and any(x == a for (x, _y) in levels[m]) for m in levels
            ):
                return False

    # top pointed block is exactly the group algebra
    pointed = [n for n in levels if n >= 1 and (1, 1) in levels[n]]
    m_top = max(pointed) if pointed else 0
    if entries.get((m_top, 1, 1), 0) != r:
        return False

    # every d above level 0 is backed by a coradical block
    for (n, a, b) in entries:
        if n >= 1:
            for d in (a, b):
                if d > 1 and (d, d) not in levels.get(0, {}):
                    return False

    if ncss and top < 1:
        return False

    if nsp:
        if (1, 1) in levels.get(1, {}):
            return False
        lvl1 = levels.get(1, {})
        good_d = False
        for d in range(2, 1 + max((max(a, b) for (_n, a, b) in entries), default=1)):
            if (d, 1) in lvl1 and (1, d) in lvl1:
                if any(k > 1 and (d, d) in levels[k] for k in levels):
                    good_d = True
                    break
        if not good_d:
            return False
        if not any(n > 1 for n in pointed):
            return False
        if pointed:
            l_min = min(pointed)
            if l_min < m_top:
                if l_min <= 1:
                    return False
                witnessed = False
                for lp in levels:
                    if lp <= l_min or (lp - 1) not in levels:
                        continue
                    row = levels[lp]
                    below = levels[lp - 1]
                    d1s = [a for (a, b) in row if b == 1 and a > 1]
                    d2s = [b for (a, b) in row if a == 1 and b > 1]
                    if (
                        any(any(x == d1 and y > 1 for (x, y) in below) for d1 in d1s)
                        and any(any(y == d2 and x > 1 for (x, y) in below) for d2 in d2s)
                    ):
                        witnessed = True
                        break
                if not witnessed:
                    return False
    return True


def _candidates(N: int, r: int, nsp: bool):
    """Yield candidate entry dicts in lexicographic order of their entry tuples.

    A candidate always stores the grouplike block (0,1,1) = r explicitly; its
    remaining entries are positive multiples of the forced divisors summing to
    N with it.
    """
    max_level, max_d = _grid(N, r)
    cells: list[tuple[int, int, int]] = [(0, d, d) for d in range(2, max_d + 1)]
    for n in range(1, max_level + 1):
        for a in range(1, max_d + 1):
            for b in range(1, max_d + 1):
                cells.append((n, a, b))
    cells.sort()
    steps = len(cells)
    position = {cell: q for q, cell in enumerate(cells)}
    entries: dict[tuple[int, int, int], int] = {(0, 1, 1): r}
    levels_occupied: dict[int, int] = {0: 1}
    forced: dict[int, int] = {}  # position -> value owed to a placed mirror

    def chain_ok(cell) -> bool:
        n, a, b = cell
        for i in range(1, n):
            if not any(
                x == a and (n - i, y, b) in entries
                for (ln, x, y) in entries
                if ln == i
            ):
                return False
        return True

    def place(cell, v):
        nonlocal steps
        steps += 1
        if steps > STEP_CAP:
            raise OracleCapError(
                f"oracle refused: N={N}, r={r} passed the step cap of {STEP_CAP} "
                f"after {steps - 1 - len(cells)} placements over {len(cells)} cells, "
                f"at cell {cell}"
            )
        entries[cell] = v
        levels_occupied[cell[0]] = levels_occupied.get(cell[0], 0) + 1

    def unplace(cell):
        del entries[cell]
        levels_occupied[cell[0]] -= 1
        if levels_occupied[cell[0]] == 0:
            del levels_occupied[cell[0]]

    def walk(pos: int, total: int):
        if total == N and not forced:
            yield dict(entries)
        pending = min(forced) if forced else len(cells)
        for q in range(pos, min(pending + 1, len(cells))):
            cell = cells[q]
            n, a, b = cell
            if q == pending:
                v = forced.pop(q)
                if total + v <= N:
                    place(cell, v)
                    yield from walk(q + 1, total + v)
                    unplace(cell)
                forced[q] = v
                return  # positions beyond a skipped mirror are dead
            if n >= 1:
                if nsp and cell == (1, 1, 1):
                    continue
                if (n - 1) not in levels_occupied:
                    break  # level gap: no later cell can repair contiguity
                if any(d > 1 and (0, d, d) not in entries for d in (a, b)):
                    continue
                if a > b:
                    continue  # mirror slot already passed without a partner
                if not chain_ok(cell):
                    continue
            div = _divisor(cell, r)
            v = div
            while total + v <= N:
                place(cell, v)
                if a != b:
                    forced[position[(n, b, a)]] = v
                    if total + 2 * v <= N:
                        yield from walk(q + 1, total + v)
                    del forced[position[(n, b, a)]]
                else:
                    yield from walk(q + 1, total + v)
                unplace(cell)
                v += div

    if N >= r:
        yield from walk(0, r)


def _accepted(N: int, r: int, flags: ModeFlags, stats: dict):
    """Yield, in canonical order, each candidate the independent rule pass
    accepts; stats["candidates"] counts the candidates walked so far."""
    for value, name in ((N, "N"), (r, "r")):
        if _require_int(value, name) < 1:
            raise ValueError(f"{name} must be positive, got {value}")
    _require(flags, ModeFlags, "flags")
    auto = flags.auto_nsp and N % r == 0 and math.gcd(r, N // r) == 1
    nsp = flags.no_skew_primitives or auto
    ncss = flags.non_cosemisimple or nsp
    stats["candidates"] = 0
    if N % r == 0:
        for cand in _candidates(N, r, nsp):
            stats["candidates"] += 1
            if _passes(cand, r, nsp, ncss):
                yield BlockSystem(r, cand)


def oracle_solve(N: int, r: int, flags: ModeFlags) -> Certificate:
    """Exhaustive enumeration verdict for (N, r); the solver's ground truth.

    Walks every candidate in lexicographic order and returns the first one the
    independent rule pass accepts, so a feasible answer carries the
    lexicographically least witness.  Infeasible means full exhaustion.
    """
    stats: dict = {}
    witness = next(_accepted(N, r, flags, stats), None)
    if witness is not None:
        return Certificate(FEASIBLE, witness=witness, stats=stats)
    return Certificate(
        INFEASIBLE,
        stats=stats,
        refutation_summary=(f"exhausted {stats['candidates']} candidates within default bounds",),
    )


def oracle_enumerate(N: int, r: int, flags: ModeFlags) -> list[BlockSystem]:
    """Every rule-satisfying system of total N, in canonical order."""
    return list(_accepted(N, r, flags, {}))

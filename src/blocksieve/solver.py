"""Feasibility search over block systems with divisibility and support rules.

Given a target dimension N and group order r, the solver decides whether any
block system within finite grid bounds satisfies every activated rule and sums
to N.  The search runs in two phases:

  phase 1 enumerates support patterns (which blocks are nonzero) level by
  level in canonical order, pruning by the support predicates that
  rules.check also uses (chain, escalation, coradical backing and the
  skew-primitive rules) and by a running minimum-cost bound;

  phase 2 assigns dimensions to a surviving support: every entry is a
  positive multiple of its forced divisor, off-diagonal mirror pairs share a
  value, the top pointed block is pinned to exactly r, and the total must be
  exactly N.  Reachable-sum bitsets decide feasibility and a greedy pass
  extracts the lexicographically least assignment.

Feasible answers carry the lexicographically least witness over the whole
search space (the support space is exhausted even after a hit, so the result
is independent of traversal scheduling).  Infeasible answers mean the entire
bounded space was exhausted; the certificate keeps a bounded trace of the
top-level case split.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from sys import _getframe, getrecursionlimit

from .blocks import (
    FEASIBLE,
    INFEASIBLE,
    BlockSystem,
    Certificate,
    ModeFlags,
    total_dim,
)
from .rules import backed, chain_gaps, check, has_nsp_core, nsp_forcing_ok, stranded

LEVEL_CAP = 200
# Most branching units per positive level.  A grid with max_d = d has
# d * (d + 1) / 2 of them, all built before the first node and ticked at
# every level, so max_d >= 100 is refused up front instead of spending
# memory quadratic in max_d; the grids of the tests, demos and benchmark
# stay below max_d = 20.
GROUP_CAP = 5_000
DEFAULT_NODE_CAP = 20_000_000
_TRACE_CAP = 64
_STACK_SLACK = 20  # solve, run, and the checks below the deepest search frame


class BoundsError(ValueError):
    """Raised when bounds exceed the level cap, the group cap or the recursion limit."""


class SearchCapExceeded(RuntimeError):
    """Raised when the search would pass the node cap; never a silent truncation."""


def basic_block_dim(r: int, d1: int, d2: int) -> int:
    """Least possible dimension of the blocks indexed by (d1, d2) over group order r.

    Edge shapes (exactly one of d1, d2 equal to 1) count the forced symmetric
    pair B(n,d,1) + B(n,1,d) together, hence the factor 2.
    """
    if r < 1 or d1 < 1 or d2 < 1:
        raise ValueError("r, d1, d2 must be positive")
    if d1 == 1 and d2 == 1:
        return r
    if d1 == 1:
        return 2 * d2 * r
    if d2 == 1:
        return 2 * d1 * r
    return math.lcm(d1 * d2, r)


def lower_bound(r: int) -> tuple[int, frozenset[int]]:
    """Minimum over d > 1 of (2d+2)r + 2*lcm(d^2, r), with every minimizing d.

    The iteration stops as soon as (2d+2)r + 2d^2 exceeds the best value found,
    which is sound because lcm(d^2, r) >= d^2; the result is therefore
    independent of any configured grid bound.
    """
    if r < 1:
        raise ValueError("r must be positive")
    best: int | None = None
    argmin: set[int] = set()
    d = 2
    while True:
        if best is not None and (2 * d + 2) * r + 2 * d * d > best:
            break
        value = (2 * d + 2) * r + 2 * math.lcm(d * d, r)
        if best is None or value < best:
            best, argmin = value, {d}
        elif value == best:
            argmin.add(d)
        d += 1
    return best, frozenset(argmin)


def minimal_form(r: int, d: int) -> BlockSystem:
    """The six-block skeleton of total dimension (2d+2)r + 2*lcm(d^2, r).

    Coradical blocks (0,1,1) = r and (0,d,d) = lcm(d^2, r), the level-1 edge
    pair of d*r each, a top pointed block (2,1,1) = r and a level-2 diagonal
    block of lcm(d^2, r).  Passes the full rule check in the
    no-skew-primitives regime.
    """
    if r < 1:
        raise ValueError("r must be positive")
    if d < 2:
        raise ValueError("d must be at least 2")
    big = math.lcm(d * d, r)
    return BlockSystem(
        r,
        {
            (0, 1, 1): r,
            (0, d, d): big,
            (1, d, 1): d * r,
            (1, 1, d): d * r,
            (2, 1, 1): r,
            (2, d, d): big,
        },
    )


@dataclass(frozen=True)
class GridBounds:
    """Finite search grid: levels 0..max_level, comodule dimensions 1..max_d."""

    max_level: int
    max_d: int

    def __post_init__(self):
        if self.max_level < 0 or self.max_d < 1:
            raise ValueError("bounds must satisfy max_level >= 0 and max_d >= 1")

    @classmethod
    def defaults(cls, target_dim: int, group_order: int) -> "GridBounds":
        """Bounds that provably contain every rule-satisfying system.

        Levels 0..n_max each cost at least r (group divisibility plus level
        contiguity), so n_max <= N/r - 1.  Any d used anywhere forces a
        coradical block of at least lcm(d^2, r) next to the grouplike block,
        so lcm(d^2, r) <= N - r.
        """
        n, r = target_dim, group_order
        max_level = max(n // r - 1, 0)
        if max_level > LEVEL_CAP:
            raise BoundsError(
                f"default max_level {max_level} exceeds the level cap {LEVEL_CAP}; "
                "pass explicit bounds to search a truncated grid"
            )
        max_d = 1
        d = 2
        while True:
            if d * d > n:
                break
            if math.lcm(d * d, r) <= n - r:
                max_d = d
            d += 1
        return cls(max_level, max_d)


@dataclass(frozen=True)
class FeasibilityProblem:
    """A (dimension, group order) query under mode flags and finite bounds."""

    target_dim: int
    group_order: int
    flags: ModeFlags = ModeFlags()
    bounds: GridBounds | None = None

    def __post_init__(self):
        if self.target_dim < 1:
            raise ValueError("target_dim must be positive")
        if self.group_order < 1:
            raise ValueError("group_order must be positive")


def _resolve_flags(p: FeasibilityProblem) -> tuple[bool, bool, bool]:
    """(nsp, non_cosemisimple, auto_applied) after resolving auto_nsp."""
    nsp = p.flags.no_skew_primitives
    auto_applied = False
    if p.flags.auto_nsp and not nsp and p.target_dim % p.group_order == 0:
        if math.gcd(p.group_order, p.target_dim // p.group_order) == 1:
            nsp = True
            auto_applied = True
    ncss = p.flags.non_cosemisimple or nsp
    return nsp, ncss, auto_applied


@dataclass(frozen=True)
class _Group:
    """A branching unit of the support search: a single cell or a mirror pair."""

    level: int
    first: tuple[int, int]            # canonical (d1, d2) of the first index
    members: tuple[tuple[int, int], ...]
    divisor: int
    weight: int                       # how many grid entries share the value

    @property
    def min_cost(self) -> int:
        return self.weight * self.divisor


def _level_groups(level: int, max_d: int, r: int) -> list[_Group]:
    """Canonically ordered branching units at one positive level."""
    groups = [_Group(level, (1, 1), ((1, 1),), r, 1)]
    for d in range(2, max_d + 1):
        groups.append(_Group(level, (1, d), ((1, d), (d, 1)), d * r, 2))
    for d1 in range(2, max_d + 1):
        groups.append(_Group(level, (d1, d1), ((d1, d1),), math.lcm(d1 * d1, r), 1))
        for d2 in range(d1 + 1, max_d + 1):
            groups.append(_Group(level, (d1, d2), ((d1, d2), (d2, d1)), math.lcm(d1 * d2, r), 2))
    groups.sort(key=lambda g: g.first)
    return groups


class _Search:
    def __init__(self, N: int, r: int, nsp: bool, ncss: bool, bounds: GridBounds, node_cap: int):
        self.N = N
        self.r = r
        self.nsp = nsp
        self.ncss = ncss
        self.bounds = bounds
        self.node_cap = node_cap
        self.nodes = 0
        self.supports = 0
        self.closed: dict[str, int] = {}
        self.best: tuple | None = None           # sorted entry tuple of the best witness
        self.trace: list[str] = []
        self.diag0 = [d for d in range(2, bounds.max_d + 1) if math.lcm(d * d, r) <= N - r]
        self.groups = _level_groups(1, bounds.max_d, r) if bounds.max_level >= 1 else []
        # support[level] maps each occupied (d1, d2) cell to its group; level 0
        # always holds the grouplike cell (1, 1).  This is the table shape the
        # support predicates of rules.py read.
        self.support: dict[int, dict[tuple[int, int], _Group]] = {
            n: {} for n in range(bounds.max_level + 1)
        }
        self._case: str | None = None
        self._case_first_close: str | None = None
        self._case_nodes_start = 0
        self._case_found = False

    # -- bookkeeping ------------------------------------------------------

    def _tick(self):
        self.nodes += 1
        if self.nodes > self.node_cap:
            raise SearchCapExceeded(
                f"search exceeded the node cap of {self.node_cap} nodes; "
                "raise the cap to search this grid exhaustively"
            )

    def _close(self, reason: str):
        self.closed[reason] = self.closed.get(reason, 0) + 1
        if self._case_first_close is None:
            self._case_first_close = reason

    # -- phase 1: support enumeration --------------------------------------

    def run(self):
        self._level0_dfs(0, [], self.r)

    # Both searches below visit the exclude-everything branch first and then
    # the includes from the last group down, the order an exclude-first
    # recursion takes, but nest one frame per included group only.

    def _level0_dfs(self, i: int, chosen: list[int], min_cost: int):
        for _ in range(i, len(self.diag0) + 1):
            self._tick()
        self._case = "{(0,1,1)}" if not chosen else (
            "{(0,1,1)" + "".join(f", (0,{d},{d})" for d in chosen) + "}"
        )
        self._case_first_close = None
        self._case_found = False
        self._case_nodes_start = self.nodes
        self.support[0] = {
            (d, d): _Group(0, (d, d), ((d, d),), math.lcm(d * d, self.r), 1) for d in [1, *chosen]
        }
        self._subset_dfs(1, 0, min_cost)
        if not self._case_found and len(self.trace) <= _TRACE_CAP:
            reason = self._case_first_close or "exhausted"
            used = self.nodes - self._case_nodes_start
            if len(self.trace) == _TRACE_CAP:
                self.trace.append("... further cases elided")
            else:
                self.trace.append(
                    f"coradical support {self._case}: closed by {reason} ({used} nodes)"
                )
        for j in range(len(self.diag0) - 1, i - 1, -1):
            d = self.diag0[j]
            cost = math.lcm(d * d, self.r)
            if min_cost + cost <= self.N:
                chosen.append(d)
                self._level0_dfs(j + 1, chosen, min_cost + cost)
                chosen.pop()

    def _subset_dfs(self, level: int, gi: int, min_cost: int):
        """Choose the support of a positive level from groups[gi:], then stop or go deeper."""
        if level > self.bounds.max_level:
            # The grid ends here; the support below is a complete candidate.
            self._stop(level - 1, min_cost)
            return
        for _ in range(gi, len(self.groups) + 1):
            self._tick()
        if not self.support[level]:
            self._stop(level - 1, min_cost)
        else:
            self._subset_dfs(level + 1, 0, min_cost)
        # include branches, with constraint checks against the fixed lower levels
        for j in range(len(self.groups) - 1, gi - 1, -1):
            g = self.groups[j]
            if min_cost + g.min_cost > self.N:
                self._close("budget")
                continue
            if self.nsp and level == 1 and g.first == (1, 1):
                self._close("R7")
                continue
            # The mirror cell uses the same two dimensions.
            if not backed(self.support, g.first):
                self._close("R11")
                continue
            # Witnesses lie strictly below this level, which is already fixed.
            # The mirror cell's condition is the same with i and n-i swapped,
            # so one representative suffices on symmetric supports.
            if any(chain_gaps(self.support, level, *g.first)):
                self._close("R4")
                continue
            placed = _Group(level, g.first, g.members, g.divisor, g.weight)
            for cell in g.members:
                self.support[level][cell] = placed
            self._subset_dfs(level, j + 1, min_cost + g.min_cost)
            for cell in g.members:
                del self.support[level][cell]

    # -- stop checks + phase 2 ---------------------------------------------

    def _stop(self, n_max: int, min_cost: int):
        self._tick()
        if self.ncss and n_max < 1:
            self._close("RNC")
            return
        if min_cost > self.N:
            self._close("budget")
            return
        if any(stranded(self.support)):
            self._close("R5")
            return
        pointed = [n for n in range(1, n_max + 1) if (1, 1) in self.support[n]]
        if self.nsp:
            # R7: the six necessary blocks; B(1,1,1) was closed at placement.
            top = pointed[-1] if pointed else 0
            if top <= 1 or not has_nsp_core(self.support):
                self._close("R7")
                return
            if not nsp_forcing_ok(self.support, pointed[0], top):
                self._close("R8")
                return
        self.supports += 1
        entries = self._assign(n_max, pointed)
        if entries is None:
            self._close("partition")
            return
        candidate = tuple(sorted(entries))
        if self.best is None or candidate < self.best:
            self.best = candidate
        self._case_found = True

    def _assign(self, n_max: int, pointed: list[int]) -> list[tuple[int, int, int, int]] | None:
        """Phase 2: lexicographically least dimension assignment, or None.

        Entries are (level, d1, d2, dim).  The grouplike block and the top
        pointed block are pinned to exactly r; every free group contributes
        weight * k * divisor for some k >= 1.
        """
        top_pointed = max(pointed) if pointed else 0
        fixed: list[tuple[int, int, int, int]] = []
        budget = self.N
        free: list[_Group] = []
        for level in range(0, n_max + 1):
            seen: set[tuple[int, int]] = set()
            for cell, g in sorted(self.support[level].items()):
                if g.first in seen:
                    continue
                seen.add(g.first)
                if cell == (1, 1) and level in (0, top_pointed):
                    fixed.append((level, 1, 1, self.r))
                    budget -= self.r
                else:
                    free.append(g)
        if budget < 0:
            return None
        free.sort(key=lambda g: (g.level, g.first))
        costs = [g.weight * g.divisor for g in free]
        # reach[i] = bitset of totals achievable by groups i.. with each k >= 1
        reach = [0] * (len(free) + 1)
        reach[len(free)] = 1
        for i in range(len(free) - 1, -1, -1):
            acc = 0
            shifted = reach[i + 1]
            c = costs[i]
            total = c
            while total <= budget:
                acc |= shifted << total
                total += c
            reach[i] = acc & ((1 << (budget + 1)) - 1)
        if not (reach[0] >> budget) & 1:
            return None
        out = list(fixed)
        rem = budget
        for i, g in enumerate(free):
            k = 1
            while True:
                spent = k * costs[i]
                if spent > rem:
                    return None  # unreachable: reach said feasible
                if (reach[i + 1] >> (rem - spent)) & 1:
                    break
                k += 1
            value = k * g.divisor
            for (d1, d2) in g.members:
                out.append((g.level, d1, d2, value))
            rem -= spent
        return out


def solve(p: FeasibilityProblem, *, node_cap: int | None = None) -> Certificate:
    """Decide feasibility of (target_dim, group_order) under the given flags.

    Returns a Feasible certificate with the lexicographically least witness,
    or an Infeasible certificate after exhausting the bounded search space.
    If the group order does not divide the dimension the answer is immediate.
    Raises BoundsError when a level of the grid holds more than GROUP_CAP
    branching units, or when the grid could nest the search deeper than the
    recursion limit allows below the caller's stack.
    """
    N, r = p.target_dim, p.group_order
    nsp, ncss, auto_applied = _resolve_flags(p)
    regime = {
        "no_skew_primitives": nsp,
        "non_cosemisimple": ncss,
        "auto_nsp_applied": auto_applied,
    }
    if N % r != 0:
        return Certificate(
            INFEASIBLE,
            stats={"nodes": 0, "closed": {"R1": 1}, "supports_checked": 0, "regime": regime},
            refutation_summary=(f"R1 forces r | N: {r} does not divide {N}",),
        )
    bounds = p.bounds if p.bounds is not None else GridBounds.defaults(N, r)
    groups = bounds.max_d * (bounds.max_d + 1) // 2 if bounds.max_level >= 1 else 0
    if groups > GROUP_CAP:
        raise BoundsError(
            f"bounds max_d={bounds.max_d} give {groups} branching units per level, "
            f"above the group cap of {GROUP_CAP}; "
            f"use max_d <= {(math.isqrt(8 * GROUP_CAP + 1) - 1) // 2}"
        )
    cap = node_cap if node_cap is not None else DEFAULT_NODE_CAP
    search = _Search(N, r, nsp, ncss, bounds, cap)
    # Phase 1 nests one frame per placed block and one per positive level.
    # Every block costs at least r, and the grid holds at most
    # len(diag0) + max_level * len(groups) of them; default bounds
    # (max_level <= LEVEL_CAP) fit under the default limit.
    blocks = min(N // r, len(search.diag0) + bounds.max_level * len(search.groups))
    depth = _stack_depth() + blocks + min(bounds.max_level, blocks) + _STACK_SLACK
    if depth > getrecursionlimit():
        raise BoundsError(
            f"bounds max_level={bounds.max_level}, max_d={bounds.max_d} at N/r={N // r} "
            f"allow {blocks} placed blocks and a search depth of up to {depth} frames, "
            f"above the interpreter's recursion limit of {getrecursionlimit()}; "
            "use a smaller max_level or max_d"
        )
    search.run()
    stats = {
        "nodes": search.nodes,
        "closed": dict(sorted(search.closed.items())),
        "supports_checked": search.supports,
        "regime": regime,
        "bounds": {"max_level": bounds.max_level, "max_d": bounds.max_d},
    }
    if search.best is None:
        return Certificate(INFEASIBLE, stats=stats, refutation_summary=tuple(search.trace))
    witness = BlockSystem(r, {(n, a, b): v for (n, a, b, v) in search.best})
    eff_flags = ModeFlags(non_cosemisimple=ncss, no_skew_primitives=nsp)
    if total_dim(witness) != N or check(witness, eff_flags):
        raise AssertionError("internal error: witness failed verification")
    return Certificate(FEASIBLE, witness=witness, stats=stats)


def _stack_depth() -> int:
    """Frames on the caller's stack, counted against the recursion limit."""
    frame, n = _getframe(1), 0
    while frame is not None:
        frame, n = frame.f_back, n + 1
    return n


def _solve_all(
    problems: list[FeasibilityProblem], node_cap: int | None, jobs: int
) -> list[Certificate]:
    """Certificates in problem order; jobs > 1 spreads them over processes."""
    run = functools.partial(solve, node_cap=node_cap)
    if jobs > 1:
        # imported here so that importing blocksieve stays cheap
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # spawned, not forked: the caller's process may hold threads
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=spawn) as pool:
            return list(pool.map(run, problems))
    return [run(p) for p in problems]


def scan(
    r: int, t_max: int, flags: ModeFlags, *, node_cap: int | None = None, jobs: int = 1
) -> list[tuple[int, str, Certificate]]:
    """Feasibility of N = t*r for t = 1..t_max; entries are (t, verdict, certificate).

    jobs > 1 solves the points in that many worker processes; the result does
    not depend on it.
    """
    if t_max < 1:
        raise ValueError("t_max must be positive")
    problems = [FeasibilityProblem(t * r, r, flags) for t in range(1, t_max + 1)]
    certs = _solve_all(problems, node_cap, jobs)
    return [(t, cert.verdict, cert) for t, cert in enumerate(certs, start=1)]


def admissible_group_orders(
    N: int, flags: ModeFlags, *, node_cap: int | None = None, jobs: int = 1
) -> set[int]:
    """Group orders 1 < r < N dividing N for which a rule-satisfying system exists.

    The trivial group order r = 1 is excluded from the survey: the block-level
    rules alone never refute it (a padded minimal form over the trivial group
    realizes every admissible total above the r = 1 lower bound), so listing
    it would carry no information about N.  jobs is as in scan.
    """
    if N < 1:
        raise ValueError("N must be positive")
    divisors = [r for r in range(2, N) if N % r == 0]
    problems = [FeasibilityProblem(N, r, flags) for r in divisors]
    certs = _solve_all(problems, node_cap, jobs)
    return {r for r, cert in zip(divisors, certs) if cert.feasible}

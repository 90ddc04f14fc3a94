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

Nodes and closes are counted in bulk.  The exclude run of a level, one node
per remaining group plus the exclude-all leaf, is one tick, which raises
exactly when the count passes the node cap, as counting node by node would.
Each fact a node reads is computed once, where it becomes fixed: the R11
verdict of every group once per coradical case (it reads level 0 only), the
R4 verdict of every group within budget once per entry into a level (it
reads the levels below only), and the R5 state as the open rows of the
levels below, folded one level at a time (rules.escalate), so a stop tests
whether any row is left open.  An include step keeps the groups within its
budget slack, tries the open ones and closes the rest with one count per
reason (budget, R7, R11, R4).  Phase 2 reads the free groups off the
placement stack and builds its reach bitsets over the slack left once every
group has its least value, doubling runs of multiples.  None of this
changes which nodes are visited, in what order, or why each one closes, so
the stats, witnesses and refutation traces of a certificate are those of a
node-by-node count.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass

from .blocks import (
    FEASIBLE,
    INFEASIBLE,
    BlockSystem,
    Certificate,
    ModeFlags,
    total_dim,
)
from .rules import backed, chain_gaps, check, escalate, has_nsp_core, nsp_forcing_ok

LEVEL_CAP = 200
# Most branching units per positive level.  A grid with max_d = d has
# d * (d + 1) / 2 of them, all built before the first node and ticked at
# every level, so max_d >= 100 is refused up front instead of spending
# memory quadratic in max_d; the grids of the tests, demos and benchmark
# stay below max_d = 20.
GROUP_CAP = 5_000
DEFAULT_NODE_CAP = 20_000_000
_TRACE_CAP = 64


class BoundsError(ValueError):
    """Raised when bounds exceed the level cap or the group cap, or when the search
    they allow reaches the interpreter's recursion limit."""


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


@dataclass(frozen=True, slots=True)
class _Group:
    """A branching unit of the support search: a single cell or a mirror pair.

    The same unit is placed at every level; the level is where it sits in
    the support, not a field.
    """

    first: tuple[int, int]            # canonical (d1, d2) of the first index
    members: tuple[tuple[int, int], ...]
    divisor: int
    weight: int                       # how many grid entries share the value
    cost: int                         # least total the unit adds: weight * divisor


def _level_groups(max_d: int, r: int) -> list[_Group]:
    """Canonically ordered branching units at one positive level."""
    groups = [_Group((1, 1), ((1, 1),), r, 1, r)]
    for d in range(2, max_d + 1):
        groups.append(_Group((1, d), ((1, d), (d, 1)), d * r, 2, 2 * d * r))
    for d1 in range(2, max_d + 1):
        big = math.lcm(d1 * d1, r)
        groups.append(_Group((d1, d1), ((d1, d1),), big, 1, big))
        for d2 in range(d1 + 1, max_d + 1):
            div = math.lcm(d1 * d2, r)
            groups.append(_Group((d1, d2), ((d1, d2), (d2, d1)), div, 2, 2 * div))
    groups.sort(key=lambda g: g.first)
    return groups


def _multipliers(costs: list[int], budget: int) -> tuple[int, ...] | None:
    """Lexicographically least k_1, k_2, ... >= 1 with sum k_i * costs[i] = budget, or None.

    The search runs over the extra multiples j_i = k_i - 1 >= 0, which must
    sum j_i * costs[i] to the slack budget - sum(costs).  A unit costing more
    than the slack keeps j_i = 0, so the reach bitsets cover only the others.
    """
    slack = budget - sum(costs)
    if slack < 0:
        return None
    ks = [1] * len(costs)
    if not slack:
        return tuple(ks)
    cheap = [i for i, c in enumerate(costs) if c <= slack]
    mask = (1 << (slack + 1)) - 1
    # reach[t] = bitset of extra totals achievable by the last t cheap units
    # with each j >= 0
    reach = [1]
    acc = 1
    for i in reversed(cheap):
        c = costs[i]
        most = slack // c
        # shifted by 0, c, ..., most * c, doubling the run of multiples
        # covered at each step
        run = 1
        while 2 * run <= most + 1:
            acc |= acc << (run * c)
            run *= 2
        if run <= most:
            acc |= acc << ((most + 1 - run) * c)
        acc &= mask
        reach.append(acc)
    if not (acc >> slack) & 1:
        return None
    rem = slack
    for t, i in zip(range(len(cheap) - 1, -1, -1), cheap):
        # the later units reach rem - j * c for some j >= 0; take the least
        after = reach[t]
        c, j = costs[i], 0
        while not (after >> (rem - j * c)) & 1:
            j += 1
        ks[i] += j
        rem -= j * c
    return tuple(ks)


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
        self.diag_groups = {}
        for d in [1, *self.diag0]:
            big = math.lcm(d * d, r)
            self.diag_groups[d] = _Group((d, d), ((d, d),), big, 1, big)
        self.groups = _level_groups(bounds.max_d, r) if bounds.max_level >= 1 else []
        # Group indices by cost, so that an include step finds the groups
        # within its slack by bisection.
        self.by_cost = sorted(range(len(self.groups)), key=lambda j: self.groups[j].cost)
        self.sorted_costs = [self.groups[j].cost for j in self.by_cost]
        self.costs = [g.cost for g in self.groups]
        # support[level] holds the occupied (d1, d2) cells of each occupied
        # level; level 0 always holds the grouplike cell (1, 1).  This is the
        # table shape the support predicates of rules.py read.  stack lists
        # the placed (level, group) pairs in placement order: level 0 first,
        # then level by level, each level in canonical order (increasing
        # first cell).  pointed holds the stack positions of the (1, 1)
        # groups at positive levels, lowest level first.
        self.support: dict[int, set[tuple[int, int]]] = {}
        self.stack: list[tuple[int, _Group]] = []
        self.pointed: list[int] = []
        # R11 verdict of each group, fixed by the coradical case.
        self.backed: list[bool] = []
        self._case_first_close: str | None = None
        self._case_nodes_start = 0
        self._case_found = False

    # -- bookkeeping ------------------------------------------------------

    def _tick(self, n: int = 1):
        """Count n nodes at once; raises exactly when the count passes the cap."""
        self.nodes += n
        if self.nodes > self.node_cap:
            raise SearchCapExceeded(
                f"search exceeded the node cap of {self.node_cap} nodes; "
                "raise the cap to search this grid exhaustively"
            )

    def _close(self, reason: str, n: int = 1):
        self.closed[reason] = self.closed.get(reason, 0) + n
        if self._case_first_close is None:
            self._case_first_close = reason

    def _place(self, level: int, g: _Group):
        self.support.setdefault(level, set()).update(g.members)
        if level and g.first == (1, 1):
            self.pointed.append(len(self.stack))
        self.stack.append((level, g))

    def _unplace(self, level: int, g: _Group):
        cells = self.support[level]
        cells.difference_update(g.members)
        if not cells:
            del self.support[level]
        if level and g.first == (1, 1):
            self.pointed.pop()
        self.stack.pop()

    # -- phase 1: support enumeration --------------------------------------

    def run(self):
        self._place(0, self.diag_groups[1])
        self._level0_dfs(0, self.r)

    # Both searches below visit the exclude-everything branch first and then
    # the includes from the last group down, the order an exclude-first
    # recursion takes, but nest one frame per included group only.  The
    # exclude run of a level is one node per remaining group plus the
    # exclude-all leaf, counted in one tick.

    def _level0_dfs(self, i: int, min_cost: int):
        self._tick(len(self.diag0) + 1 - i)
        chosen = [g for _, g in self.stack[1:]]
        case = "{(0,1,1)" + "".join(f", (0,{g.first[0]},{g.first[1]})" for g in chosen) + "}"
        self._case_first_close = None
        self._case_found = False
        self._case_nodes_start = self.nodes
        # The mirror cell uses the same two dimensions, so one call per group.
        self.backed = [backed(self.support, g.first) for g in self.groups]
        self._subset_dfs(1, 0, min_cost, {}, None, [])
        if not self._case_found and len(self.trace) <= _TRACE_CAP:
            reason = self._case_first_close or "exhausted"
            used = self.nodes - self._case_nodes_start
            if len(self.trace) == _TRACE_CAP:
                self.trace.append("... further cases elided")
            else:
                self.trace.append(
                    f"coradical support {case}: closed by {reason} ({used} nodes)"
                )
        for j in range(len(self.diag0) - 1, i - 1, -1):
            g = self.diag_groups[self.diag0[j]]
            if min_cost + g.cost <= self.N:
                self._place(0, g)
                self._level0_dfs(j + 1, min_cost + g.cost)
                self._unplace(0, g)

    def _subset_dfs(
        self, level: int, gi: int, min_cost: int, open_rows: dict, why: list | None, cands: list
    ):
        """Choose the support of a positive level from groups[gi:], then stop or go deeper.

        open_rows is the R5 fold of the levels below (rules.escalate).  A
        level is entered with gi = 0 and why None; the entry computes why,
        the close reason of each group at this level, and the include
        recursion hands it down with cands, the groups from gi on that fit
        the parent step's slack, in decreasing index.
        """
        if level > self.bounds.max_level:
            # The grid ends here; the support below is a complete candidate.
            self._stop(level - 1, open_rows)
            return
        self._tick(len(self.groups) + 1 - gi)
        cells = self.support.get(level)
        if cells is None:
            self._stop(level - 1, open_rows)
        else:
            above = dict(open_rows)
            escalate(above, level, cells)
            self._subset_dfs(level + 1, 0, min_cost, above, None, [])
        # Include branches.  Every include step of a coradical case comes
        # after the case's first stop (its exclude-all leaf), which either
        # closed, fixing the reason the trace names, or found a witness, so
        # the case leaves no trace line; and the counts do not depend on the
        # order of the closes.  So the groups over budget, and those the
        # fixed lower levels close, are each closed in one count.
        if why is None:
            why, cands = self._level_closes(level, min_cost)
        else:
            slack = self.N - min_cost
            cost = self.costs
            cands = [j for j in cands if cost[j] <= slack]
        over = len(self.groups) - gi - len(cands)
        if over:
            self._close("budget", over)
        reasons = [why[j] for j in cands]
        for reason in ("R7", "R11", "R4"):
            n = reasons.count(reason)
            if n:
                self._close(reason, n)
        for i, j in enumerate(cands):
            if reasons[i] is None:
                g = self.groups[j]
                self._place(level, g)
                # cands[:i] are the groups after j that fit this step's slack
                self._subset_dfs(level, j + 1, min_cost + g.cost, open_rows, why, cands[:i])
                self._unplace(level, g)

    def _level_closes(self, level: int, min_cost: int) -> tuple[list, list]:
        """Close reasons at a newly entered level, and the groups that fit its slack.

        why[j] is R7, R11 or R4 when an include step at this level closes
        group j, None when it is tried.  Only the groups within the entry's
        slack are set, since every include step of the level has less; they
        come back in decreasing index.  R11 reads level 0 and R4 the levels
        below this one, all fixed until the level is left.
        """
        why: list = [None] * len(self.groups)
        fit = self.by_cost[:bisect_right(self.sorted_costs, self.N - min_cost)]
        fit.sort(reverse=True)
        for j in fit:
            if not self.backed[j]:
                why[j] = "R11"
            # Witnesses lie strictly below this level.  The mirror cell's
            # condition is the same with i and n-i swapped, so one
            # representative suffices on symmetric supports.
            elif any(chain_gaps(self.support, level, *self.groups[j].first)):
                why[j] = "R4"
        if self.nsp and level == 1:
            # B(1,1,1) is group 0 and always backed.
            why[0] = "R7"
        return why, fit

    # -- stop checks + phase 2 ---------------------------------------------

    def _stop(self, n_max: int, open_rows: dict):
        """Check a complete support; every include fit its slack, so its cost is within N."""
        self._tick()
        if self.ncss and n_max < 1:
            self._close("RNC")
            return
        if open_rows:
            self._close("R5")
            return
        pointed = self.pointed
        top = self.stack[pointed[-1]][0] if pointed else 0
        if self.nsp:
            # R7: the six necessary blocks; B(1,1,1) was closed by the include steps.
            if top <= 1 or not has_nsp_core(self.support):
                self._close("R7")
                return
            if not nsp_forcing_ok(self.support, self.stack[pointed[0]][0], top):
                self._close("R8")
                return
        self.supports += 1
        entries = self._assign(top)
        if entries is None:
            self._close("partition")
            return
        candidate = tuple(sorted(entries))
        if self.best is None or candidate < self.best:
            self.best = candidate
        self._case_found = True

    def _assign(self, top: int) -> list[tuple[int, int, int, int]] | None:
        """Phase 2: lexicographically least dimension assignment, or None.

        Entries are (level, d1, d2, dim).  The grouplike block and the block
        (top, 1, 1) of the top pointed level are pinned to exactly r; every
        free group contributes weight * k * divisor for some k >= 1, and the
        multipliers k are least in (level, first cell) order of the groups,
        which is the order of the placement stack.
        """
        fixed = [(0, 1, 1, self.r)]
        if top:
            fixed.append((top, 1, 1, self.r))
            p = self.pointed[-1]
            free = self.stack[1:p] + self.stack[p + 1:]
        else:
            free = self.stack[1:]
        # a list, not tuple(generator): that grows its tuple by resizing, which
        # fills the interpreter's per-length tuple free lists on every call
        ks = _multipliers([g.cost for _, g in free], self.N - self.r * len(fixed))
        if ks is None:
            return None
        out = fixed
        for (level, g), k in zip(free, ks):
            value = k * g.divisor
            for (d1, d2) in g.members:
                out.append((level, d1, d2, value))
        return out


def solve(p: FeasibilityProblem, *, node_cap: int | None = None) -> Certificate:
    """Decide feasibility of (target_dim, group_order) under the given flags.

    Returns a Feasible certificate with the lexicographically least witness,
    or an Infeasible certificate after exhausting the bounded search space.
    If the group order does not divide the dimension the answer is immediate.
    Raises ValueError for a node cap below 1, before any other answer;
    BoundsError when a level of the grid holds more than GROUP_CAP
    branching units, or when the search reaches the interpreter's recursion
    limit below the caller's stack.
    """
    if node_cap is not None and node_cap < 1:
        raise ValueError(f"node_cap must be positive, got {node_cap}")
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
    # Phase 1 nests one frame per placed block and one per positive level;
    # default bounds (max_level <= LEVEL_CAP) fit under the default limit.
    try:
        search.run()
    except RecursionError:
        raise BoundsError(
            f"bounds max_level={bounds.max_level}, max_d={bounds.max_d} at N/r={N // r} "
            "nest the search deeper than the interpreter's recursion limit; "
            "use a smaller max_level or max_d"
        ) from None
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


def _solve_all(
    problems: list[FeasibilityProblem], node_cap: int | None, jobs: int
) -> list[Certificate]:
    """Certificates in problem order; jobs > 1 spreads them over processes."""
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
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

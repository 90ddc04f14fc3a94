"""Feasibility search over block systems with divisibility and support rules.

Given a target dimension N and group order r, the solver decides whether any
block system satisfies every activated rule and sums to N.  It searches the
grid of _grid, which provably holds every such system, or refuses.  The
search runs in two phases:

  phase 1 enumerates support patterns (which blocks are nonzero) level by
  level in canonical order, pruning by the support predicates that
  rules.check also uses (chain, escalation, coradical backing and the
  skew-primitive rules) and by a running minimum-cost bound;

  phase 2 assigns dimensions to a surviving support: every entry is a
  positive multiple of its least dimension (rules.least_dim, from the one
  statement of the divisibility rules), off-diagonal mirror pairs share a
  value, the top pointed block is pinned to exactly r, and the total must be
  exactly N.  Reachable-sum bitsets decide feasibility, and a greedy pass
  extracts the lexicographically least assignment, only where it can beat
  the best witness so far (see _stop).

Feasible answers carry the lexicographically least witness over the whole
search space (the support space is exhausted even after a hit, so the result
is independent of traversal scheduling).  The coradical cases come in
witness order, each after the cases that extend it.  Infeasible answers mean
the whole grid was exhausted; the certificate keeps a bounded trace of the
first _TRACE_CAP refuted cases in the reverse order, largest d first: per
case, its node count and the close of its level-0 leaf, RNC (see _level0_dfs).

Phase 1 holds its support in one rules.Support keyed by d: per level, a row
bitmask per d and the masks of the rows present and of those with an
off-diagonal cell.  Each group places a cell with its mirror, so every level
is symmetric and its row masks also serve as its column masks.  An include
step sets its group's bits in place and restores them once its subtree is
searched.  Each fact a node reads is
computed once, where it becomes fixed: the R11 verdict of every group once
per coradical case, the R4 verdict of every group within budget once per
entry into a level (one AND of a row and a column mask per split, up to the
first without a witness, rules.chain_gap), and the R5 state as a mask of
open rows, folded one level at a time (rules.escalate).  The verdicts are
group bitmasks, and so are the groups that fit a slack, found by bisection
on the sorted costs; an include step counts each rule's closes and the
groups over budget by popcount and visits only the open groups.  Nodes are
counted in bulk: the exclude run of a level, one node per remaining group
plus the exclude-all leaf, is one tick, which raises exactly when the count
passes the node cap.  Phase 2 counts in units of r, reads the free groups
off the placement stack and memoizes a reach bitset per set of free costs;
extraction builds one per free group, doubling runs of multiples.  None of
this changes which nodes are visited or why each one closes, so the stats,
witnesses and refutation traces are those of a node-by-node count.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from .blocks import (
    FEASIBLE,
    INFEASIBLE,
    PLAIN,
    BlockSystem,
    Certificate,
    ModeFlags,
    _Frozen,
    _require,
    _require_int,
    total_dim,
)
from .rules import (Support, backed, chain_gap, check, escalate, has_nsp_core, least_dim,
                    nsp_forcing_ok)

LEVEL_CAP = 200
# Most branching units per positive level.  A grid with max_d = d has
# d * (d + 1) / 2 of them, all built before the first node and ticked at
# every level, so max_d >= 100 is refused up front instead of spending
# memory quadratic in max_d; the grid reaches it only at huge r, as at
# (20_000, 10_000).
GROUP_CAP = 5_000
DEFAULT_NODE_CAP = 20_000_000
_TRACE_CAP = 64
# Most reach bitsets a search memoizes for phase 2; past it the memo starts over.
_MEMO_CAP = 1024


class BoundsError(ValueError):
    """Raised when the grid of (N, r) passes the level cap or the group cap, or when
    its search reaches the interpreter's recursion limit."""


class SearchCapExceeded(RuntimeError):
    """Raised when the search would pass the node cap; never a silent truncation."""


def lower_bound(r: int) -> tuple[int, frozenset[int]]:
    """Minimum over d > 1 of (2d+2)r + 2*lcm(d^2, r), with every minimizing d.

    The iteration stops as soon as (2d+2)r + 2d^2 exceeds the best value found,
    which is sound because lcm(d^2, r) >= d^2; the result is therefore
    independent of any configured grid bound.
    """
    if _require_int(r, "r") < 1:
        raise ValueError("r must be positive")
    best, argmin, d = total_dim(minimal_form(r, 2)), {2}, 3
    while (2 * d + 2) * r + 2 * d * d <= best:
        value = total_dim(minimal_form(r, d))
        if value < best:
            best, argmin = value, set()
        if value == best:
            argmin.add(d)
        d += 1
    return best, frozenset(argmin)


def minimal_form(r: int, d: int) -> BlockSystem:
    """The six-block skeleton of total dimension (2d+2)r + 2*lcm(d^2, r).

    Coradical blocks (0,1,1) = r and (0,d,d) = lcm(d^2, r), the level-1 edge
    pair of d*r each, a top pointed block (2,1,1) = r and a level-2 diagonal
    block of lcm(d^2, r): each block not pointed is of its rules.least_dim.
    Passes the full rule check in the no-skew-primitives regime.
    """
    if _require_int(r, "r") < 1:
        raise ValueError("r must be positive")
    if _require_int(d, "d") < 2:
        raise ValueError("d must be at least 2")
    big, edge = least_dim(r, d, d), least_dim(r, d, 1)
    return BlockSystem(r, {
        (0, 1, 1): r, (0, d, d): big,
        (1, d, 1): edge, (1, 1, d): edge,
        (2, 1, 1): r, (2, d, d): big,
    })


def _grid(N: int, r: int) -> tuple[int, int]:
    """(max_level, max_d) of a grid that holds every rule-satisfying system.

    Levels 0..n_max each cost at least r (group divisibility plus level
    contiguity), so n_max <= N/r - 1.  Any d used anywhere forces a block
    (0,d,d) next to the grouplike one, so least_dim(r, d, d) <= N - r.  The
    level cap is tested before the d loop, and the group cap as max_d
    grows, since max_d never shrinks.

    No d above n_max * isqrt(n_max) * s passes, s the largest integer whose
    square divides r: with g = gcd(d, r), (d/g)^2 * r <= lcm(d^2, r) as
    gcd(d^2, r) <= g^2, and r * g / h = lcm(g^2, r) <= N - r with
    h = gcd(g, r/g), whose square divides r, so d/g <= isqrt(n_max) and
    g <= n_max * h <= n_max * s.  The loop divides r by each d it passes;
    at the first d whose cube exceeds what is left, s is known, and the
    loop stops at that bound: a huge prime r stops at its cube root, not at
    sqrt(N), and no input visits a d the unbounded loop would not.  The
    same argument screens each d before least_dim is asked: d is h * f with
    h | s and f <= n_max * isqrt(n_max), so d / gcd(d, m) is at most that
    for every multiple m of s, and s times what is left of r is one.
    """
    max_level = max(N // r - 1, 0)
    if max_level > LEVEL_CAP:
        raise BoundsError(f"default max_level {max_level} exceeds the level cap {LEVEL_CAP}")
    per = max_level * math.isqrt(max_level)
    max_d = d = 1
    # rest is r without its primes up to d, s * s the square they held
    rest, s, top = r, 1, None
    while ((d + 1) ** 2 <= N and max_d * (max_d + 1) // 2 <= GROUP_CAP
           and (top is None or d < top)):
        d += 1
        if top is None:
            while rest % (d * d) == 0:
                rest, s = rest // (d * d), s * d
            rest //= d if rest % d == 0 else 1
            if d ** 3 > rest:  # rest has at most two prime factors, both above d
                q = math.isqrt(rest)
                top = per * (s * q if q * q == rest else s)
        # a d that passes is h * f, h | s and f <= per, and s divides s * rest
        if d // math.gcd(d, s * rest) <= per and least_dim(r, d, d) <= N - r:
            max_d = d
    groups = max_d * (max_d + 1) // 2
    if groups > GROUP_CAP:
        least = "at least " if (d + 1) ** 2 <= N else ""
        raise BoundsError(
            f"N={N}, r={r} has max_d {least}{max_d}, so {least}{groups} branching "
            f"units per level, above the group cap of {GROUP_CAP}"
        )
    return max_level, max_d


class FeasibilityProblem(_Frozen):
    """A (dimension, group order) query under mode flags."""

    __slots__ = ("target_dim", "group_order", "flags")

    def __init__(self, target_dim: int, group_order: int, flags: ModeFlags = PLAIN):
        _require_int(target_dim, "target_dim")
        _require_int(group_order, "group_order")
        if target_dim < 1:
            raise ValueError("target_dim must be positive")
        if group_order < 1:
            raise ValueError("group_order must be positive")
        super().__init__(target_dim, group_order, _require(flags, ModeFlags, "flags"))


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


class _Group:
    """A branching unit of the support search: a single cell or a mirror pair.

    The same unit is placed at every level; the level is where it sits in
    the support, not a field.
    """

    __slots__ = ("first", "members", "divisor", "cost", "units", "rows", "offdiag")

    def __init__(self, first: tuple[int, int], members: tuple[tuple[int, int], ...],
                 divisor: int, r: int):
        self.first = first            # canonical (d1, d2) of the first index
        self.members = members        # the grid entries that share the value
        self.divisor = divisor
        self.cost = len(members) * divisor  # least total the unit adds
        self.units = self.cost // r   # the same in units of r, which divides it
        a, b = first                  # the rows the unit occupies, and its off-diagonal ones
        self.rows = 1 << a | 1 << b
        self.offdiag = self.rows if a != b else 0


def _level_groups(max_d: int, r: int) -> list[_Group]:
    """Canonically ordered branching units, each member of its least dimension
    (rules.least_dim); the diagonal ones past (1, 1) also serve level 0."""
    return [
        _Group((d1, d2), ((d1, d2),) if d1 == d2 else ((d1, d2), (d2, d1)),
               least_dim(r, d1, d2), r)
        for d1 in range(1, max_d + 1)
        for d2 in range(d1, max_d + 1)
    ]


def _case_bound(r: int, groups: list[_Group]) -> tuple:
    """Lower bound on the sorted entries of the case of (0,1,1) and the level-0 groups (see _stop).

    The sentinel (1,) sorts below every entry above level 0.
    """
    return ((0, 1, 1, r), *((0, *g.first, g.divisor) for g in groups), (1,))


def _spread(acc: int, c: int, slack: int) -> int:
    """acc or-ed with its shifts by c, ..., (slack // c) * c, in doubling runs, cut at slack."""
    most = slack // c
    run = 1
    while 2 * run <= most + 1:
        acc |= acc << (run * c)
        run *= 2
    if run <= most:
        acc |= acc << ((most + 1 - run) * c)
    return acc & ((2 << slack) - 1)


def _reach(costs: int, most: int) -> int:
    """Bitset of the sums up to most of multiples (each >= 0) of the costs whose bits are set."""
    acc = 1
    while costs:
        c = costs.bit_length() - 1
        costs ^= 1 << c
        acc = _spread(acc, c, most)
    return acc


def _multipliers(costs: list[int], budget: int) -> tuple[int, ...] | None:
    """Lexicographically least k_1, k_2, ... >= 1 with sum k_i * costs[i] = budget, or None.

    The search runs over the extra multiples j_i = k_i - 1 >= 0, which must
    sum j_i * costs[i] to the slack budget - sum(costs).  Each unit in turn
    takes the least j_i that the units after it can complete.
    """
    slack = budget - sum(costs)
    if slack < 0:
        return None
    # reach[i] = bitset of extra totals achievable by units i, i+1, ... with
    # each j >= 0
    reach = [1] * (len(costs) + 1)
    for i in range(len(costs) - 1, -1, -1):
        reach[i] = _spread(reach[i + 1], costs[i], slack)
    if not (reach[0] >> slack) & 1:
        return None
    ks = []
    rem = slack
    for c, after in zip(costs, reach[1:]):
        j = 0
        while not (after >> (rem - j * c)) & 1:
            j += 1
        ks.append(1 + j)
        rem -= j * c
    return tuple(ks)


class _Search:
    def __init__(self, N: int, r: int, nsp: bool, ncss: bool, max_level: int, max_d: int,
                 node_cap: int):
        self.N = N
        self.r = r
        self.nsp = nsp
        self.ncss = ncss
        self.max_level = max_level
        self.node_cap = node_cap
        self.nodes = 0
        self.supports = 0
        self.closed: dict[str, int] = {}
        self.best: tuple | None = None           # sorted entry tuple of the best witness
        # The last _TRACE_CAP refuted cases, and how many were refuted.
        self.trace: list[str] = []
        self.refuted = 0
        self.groups = _level_groups(max_d, r)
        self.diag_groups = [g for g in self.groups[1:] if g.offdiag == 0 and g.cost <= N - r]
        # Group indices by cost, so that the groups within a slack are found
        # by bisection: fit_masks[k] has bit j set for the k cheapest groups,
        # by_cost[:k].
        by_cost = sorted(range(len(self.groups)), key=lambda j: self.groups[j].cost)
        self.sorted_costs = [self.groups[j].cost for j in by_cost]
        self.firsts = [g.first for g in self.groups]
        self.fit_masks = [0]
        for j in by_cost:
            self.fit_masks.append(self.fit_masks[-1] | 1 << j)
        # table holds the placed cells, level 0 always the grouplike cell
        # (1, 1); stack the placed (level, group) pairs, level by level, each
        # level in canonical order (increasing first cell); pointed the stack
        # positions of the (1, 1) groups at positive levels, lowest first.
        self.table = Support(max_level + 1, max_d, [(0, 1, 1)])
        self.table.cols = self.table.rows    # every level is symmetric (see above)
        self.stack: list[tuple[int, _Group]] = []
        self.pointed: list[int] = []
        # Bit j set when group j is closed by R11, fixed by the coradical case.
        self.unbacked = 0
        self._case_found = False
        self.bound: tuple = ()                   # the case's _case_bound
        # _feasible's reach bitsets, keyed by the bitmask of free unit costs.
        self.reach: dict[int, int] = {}

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

    # -- phase 1: support enumeration --------------------------------------

    def run(self):
        self.stack.append((0, _Group((1, 1), ((1, 1),), self.r, self.r)))
        self._level0_dfs(0, self.r)

    def _level0_dfs(self, i: int, min_cost: int):
        """Search the coradical case on the stack after every case that extends it.

        Extensions go by next d ascending, so the cases come in increasing
        _case_bound order, the reverse of a pre-order with the largest d first.
        """
        self._tick(len(self.diag_groups) + 1 - i)
        table, stack = self.table, self.stack
        for j in range(i, len(self.diag_groups)):
            g = self.diag_groups[j]
            if min_cost + g.cost <= self.N:
                d = g.first[0]
                table.rows[0][d] = 1 << d
                table.present[0] |= 1 << d
                stack.append((0, g))
                self._level0_dfs(j + 1, min_cost + g.cost)
                stack.pop()
                table.rows[0][d] = 0
                table.present[0] ^= 1 << d
        self.bound = _case_bound(self.r, [g for _, g in self.stack[1:]])
        self._case_found = False
        start = self.nodes
        # The mirror cell uses the same two dimensions, so one call per group.
        self.unbacked = sum(1 << j for j, first in enumerate(self.firsts)
                            if not backed(table, first))
        self._subset_dfs(1, 0, min_cost, 0, None)
        if not self._case_found:
            self.refuted += 1
            # The close named is that of the case's first event, level 1
            # found empty, which is RNC: only NCSS problems are refuted,
            # since a PLAIN one has the pointed chain (n,1,1) = r.
            case = "".join(f", (0,{g.first[0]},{g.first[1]})" for _, g in self.stack[1:])
            self.trace.append(
                f"coradical support {{(0,1,1){case}}}: closed by RNC "
                f"({self.nodes - start} nodes)"
            )
            if len(self.trace) > _TRACE_CAP:
                del self.trace[0]

    def _subset_dfs(self, level: int, gi: int, min_cost: int, open_rows: int,
                    shut: tuple | None):
        """Choose the support of a positive level from groups[gi:], then stop or go deeper.

        open_rows is the R5 fold of the levels below (rules.escalate).  A
        level is entered with gi = 0 and shut None; the entry computes shut
        (_level_closes), which the include recursion hands down.

        It visits the exclude-everything branch first and then the includes
        from the last group down, the order an exclude-first recursion
        takes, but nests one frame per included group only.  The exclude
        run of a level is one node per remaining group plus the exclude-all
        leaf, counted in one tick.
        """
        if level > self.max_level:
            # The grid ends here; the support below is a complete candidate.
            self._stop(level - 1, open_rows, min_cost)
            return
        groups, table = self.groups, self.table
        self._tick(len(groups) + 1 - gi)
        if table.present[level]:
            self._subset_dfs(level + 1, 0, min_cost, escalate(table, open_rows, level), None)
        else:
            self._stop(level - 1, open_rows, min_cost)
        # Include branches: the groups from gi on within this step's slack,
        # each closed one counted under its reason by popcount, the groups
        # over budget in one count, and the open ones tried from the last.
        fit = self.fit_masks[bisect_right(self.sorted_costs, self.N - min_cost)]
        if shut is None:
            shut = self._level_closes(level, fit)
        live, closes = shut
        cand = fit >> gi << gi
        closed = self.closed
        over = len(groups) - gi - cand.bit_count()
        if over:
            closed["budget"] = closed.get("budget", 0) + over
        for reason, mask in closes:
            n = (cand & mask).bit_count()
            if n:
                closed[reason] = closed.get(reason, 0) + n
        tries = cand & live
        if not tries:
            return
        row = table.rows[level]
        present, offdiag = table.present, table.offdiag
        was_present, was_offdiag = present[level], offdiag[level]
        stack, pointed = self.stack, self.pointed
        while tries:
            j = tries.bit_length() - 1
            tries ^= 1 << j
            g = groups[j]
            a, b = g.first
            was = row[a], row[b]
            row[a] |= 1 << b
            row[b] |= 1 << a
            present[level] = was_present | g.rows
            offdiag[level] = was_offdiag | g.offdiag
            if not j:  # group 0 is the pointed cell (1, 1)
                pointed.append(len(stack))
            stack.append((level, g))
            self._subset_dfs(level, j + 1, min_cost + g.cost, open_rows, shut)
            stack.pop()
            if not j:
                pointed.pop()
            row[a], row[b] = was
        present[level], offdiag[level] = was_present, was_offdiag

    def _level_closes(self, level: int, fit: int) -> tuple[int, tuple]:
        """(live, closes) at a newly entered level whose slack fits the groups of fit.

        closes pairs R11, R4 and R7 with the mask of the groups each closes
        here, live masks the groups tried; each mask lies within fit, since
        every include step of the level has less slack.  R11 reads level 0
        and R4 the levels below this one, all fixed until the level is left.
        """
        # B(1,1,1) is group 0 and always backed.
        r7 = fit & 1 if self.nsp and level == 1 else 0
        r4 = 0
        firsts, table = self.firsts, self.table
        todo = fit & ~(self.unbacked | r7)
        while todo:
            j = todo.bit_length() - 1
            todo ^= 1 << j
            # Witnesses lie strictly below this level.  The mirror cell's
            # condition is the same with i and n-i swapped, so one
            # representative suffices on symmetric supports.
            if chain_gap(table, level, *firsts[j]):
                r4 |= 1 << j
        closes = (("R11", self.unbacked & fit), ("R4", r4), ("R7", r7))
        return fit & ~(self.unbacked | r4 | r7), closes

    # -- stop checks + phase 2 ---------------------------------------------

    def _stop(self, n_max: int, open_rows: int, cost: int):
        """Check a complete support of least total cost; every include fit, so cost <= N.

        Each support that passes the rules gets a feasibility verdict, so the
        partition count is exact, but only one whose case bound lies below
        the best witness is assigned and sorted.  The skip is sound: a system
        with an entry above level 0 sorts above its bound, and the one without
        (a PLAIN case's leaf) sums to N, so it is no proper prefix of a witness.
        """
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
            if top <= 1 or not has_nsp_core(self.table, n_max):
                self._close("R7")
                return
            if not nsp_forcing_ok(self.table, self.stack[pointed[0]][0], top, n_max):
                self._close("R8")
                return
        self.supports += 1
        if not self._feasible(top, cost):
            self._close("partition")
            return
        self._case_found = True
        if self.best is None or self.bound < self.best:
            candidate = tuple(sorted(self._assign(top)))
            if self.best is None or candidate < self.best:
                self.best = candidate

    def _free(self, top: int) -> list[tuple[int, _Group]]:
        """The placed (level, group) pairs phase 2 sizes, in stack order.

        That is every placed group but the grouplike block and, at a top
        pointed level top > 0, the block (top, 1, 1): both are pinned to r.
        """
        if top:
            p = self.pointed[-1]
            return self.stack[1:p] + self.stack[p + 1:]
        return self.stack[1:]

    def _feasible(self, top: int, cost: int) -> bool:
        """Whether phase 2 can assign the support on the stack, of least total cost.

        The free groups' extra multiples must fill the slack exactly, which
        depends only on which of their unit costs lie within it, so each set
        of costs has one reach bitset per search.
        """
        slack = (self.N - cost) // self.r
        if slack <= 0:
            return not slack
        costs = 0
        for _, g in self._free(top):
            costs |= 1 << g.units
        costs &= (2 << slack) - 1
        reach = self.reach.get(costs)
        if reach is None:
            if len(self.reach) >= _MEMO_CAP:
                self.reach.clear()
            reach = self.reach[costs] = _reach(costs, self.N // self.r)
        return bool(reach >> slack & 1)

    def _assign(self, top: int) -> list[tuple[int, int, int, int]]:
        """Phase 2: the lexicographically least dimension assignment of a feasible support.

        Entries are (level, d1, d2, dim).  The grouplike block and the block
        (top, 1, 1) of the top pointed level are pinned to exactly r; every
        free group (_free) contributes k * cost (k * divisor per member) for
        some k >= 1, and the multipliers k are least in (level, first cell)
        order of the groups, which is the order of the placement stack.
        _stop calls it only where _feasible holds and the support may win.
        """
        fixed = [(0, 1, 1, self.r)]
        if top:
            fixed.append((top, 1, 1, self.r))
        free = self._free(top)
        # Every cost and the budget are multiples of r, so they are counted
        # in units of r: a reach bitset has at most N/r bits however large r
        # is.  A list, not tuple(generator): that grows its tuple by resizing,
        # which fills the interpreter's per-length tuple free lists each call.
        ks = _multipliers([g.units for _, g in free], self.N // self.r - len(fixed))
        out = fixed
        for (level, g), k in zip(free, ks):
            value = k * g.divisor
            for (d1, d2) in g.members:
                out.append((level, d1, d2, value))
        return out


def _check_node_cap(node_cap: int | None):
    if node_cap is not None and _require_int(node_cap, "node_cap") < 1:
        raise ValueError(f"node_cap must be positive, got {node_cap}")


def solve(p: FeasibilityProblem, *, node_cap: int | None = None) -> Certificate:
    """Decide feasibility of (target_dim, group_order) under the given flags.

    Returns a Feasible certificate with the lexicographically least witness,
    or an Infeasible certificate after exhausting the grid of _grid.
    If the group order does not divide the dimension the answer is immediate.
    Raises ValueError for a node cap that is not an int or is below 1,
    before any other answer;
    BoundsError when the grid has more than LEVEL_CAP positive levels or
    more than GROUP_CAP branching units per level, or when the search
    reaches the interpreter's recursion limit below the caller's stack.
    """
    _check_node_cap(node_cap)
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
    max_level, max_d = _grid(N, r)
    cap = node_cap if node_cap is not None else DEFAULT_NODE_CAP
    search = _Search(N, r, nsp, ncss, max_level, max_d, cap)
    # Phase 1 nests one frame per placed block and one per positive level;
    # a grid within the level cap fits under the default limit.
    try:
        search.run()
    except RecursionError:
        raise BoundsError(
            f"bounds max_level={max_level}, max_d={max_d} at N/r={N // r} "
            "nest the search deeper than the interpreter's recursion limit"
        ) from None
    stats = {
        "nodes": search.nodes,
        "closed": dict(sorted(search.closed.items())),
        "supports_checked": search.supports,
        "regime": regime,
        "bounds": {"max_level": max_level, "max_d": max_d},
    }
    if search.best is None:
        more = ("... further cases elided",) if search.refuted > _TRACE_CAP else ()
        trace = (*reversed(search.trace), *more)
        return Certificate(INFEASIBLE, stats=stats, refutation_summary=trace)
    witness = BlockSystem(r, {(n, a, b): v for (n, a, b, v) in search.best})
    eff_flags = ModeFlags(non_cosemisimple=ncss, no_skew_primitives=nsp)
    if total_dim(witness) != N or check(witness, eff_flags):
        raise AssertionError("internal error: witness failed verification")
    return Certificate(FEASIBLE, witness=witness, stats=stats)


def scan(
    r: int, t_max: int, flags: ModeFlags, *, node_cap: int | None = None
) -> list[tuple[int, str, Certificate]]:
    """Feasibility of N = t*r for t = 1..t_max; entries are (t, verdict, certificate).

    Raises BoundsError before any solve when the grid of the last point,
    N = t_max * r, passes a cap, since solving it would; then checks node_cap
    as solve does, so a scan that searches nothing still refuses it.
    """
    if _require_int(r, "r") < 1:
        raise ValueError("r must be positive")
    if _require_int(t_max, "t_max") < 1:
        raise ValueError("t_max must be positive")
    _grid(t_max * r, r)
    _check_node_cap(node_cap)
    certs = (solve(FeasibilityProblem(t * r, r, flags), node_cap=node_cap)
             for t in range(1, t_max + 1))
    return [(t, cert.verdict, cert) for t, cert in enumerate(certs, start=1)]


def surveyed_group_orders(N: int) -> list[int]:
    """The divisors 1 < r < N of N, ascending: the group orders admissible_group_orders surveys.

    Each divisor d <= sqrt(N) pairs with N / d, so the loop stops at sqrt(N).
    """
    if _require_int(N, "N") < 1:
        raise ValueError("N must be positive")
    small, large = [], []
    for d in range(2, math.isqrt(N) + 1):
        if N % d == 0:
            small.append(d)
            if d * d != N:
                large.append(N // d)
    return small + large[::-1]


def admissible_group_orders(
    N: int, flags: ModeFlags, *, node_cap: int | None = None
) -> set[int]:
    """Group orders 1 < r < N dividing N for which a rule-satisfying system exists.

    The trivial group order r = 1 is excluded from the survey: the block-level
    rules alone never refute it (a padded minimal form over the trivial group
    realizes every admissible total above the r = 1 lower bound), so listing
    it would carry no information about N.  As in scan, a grid past a cap,
    here the smallest order's, the deepest, is refused before any solve, and
    then node_cap, even where the survey is empty and nothing is solved (a
    prime N such as 7).
    """
    divisors = surveyed_group_orders(N)
    if divisors:
        _grid(N, divisors[0])
    _check_node_cap(node_cap)
    return {
        r for r in divisors
        if solve(FeasibilityProblem(N, r, flags), node_cap=node_cap).feasible
    }

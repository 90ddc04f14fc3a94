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
case, its node count and the close of its level-0 leaf, RNC (_trace_line).

A search pays per call only for what it reads.  Its branching units (a
cell or a mirror pair, the same at every level) form one flat table of
per-unit lists indexed by canonical position j, and the placement stack
holds (level, j) pairs.  Level 0 is searched as coradical cases, each
carrying down its _case_bound and its R11 mask, the OR of per-d group masks
over the d it lacks (rules.unbacked).  The positive levels are one
rules.Support keyed by d, symmetric, so its rows serve as its columns; an
include step sets its group's bits in place and restores them after its
subtree.  R4 is decided for every group within budget once per entry into a
level above 1 (rules.chain_gap), R5 is a mask of open rows folded one level
at a time (rules.escalate), and the groups that fit a slack, in units of r,
are looked up by it.  An include step adds each rule's closes and the groups
over budget by popcount to the reason's int slot (_REASONS) and visits only
the open groups.  A level's exclude run, one node per remaining group plus
the exclude-all leaf, is counted in one addition, which raises exactly when
it passes the node cap.  Phase 2 counts in units of r and memoizes a reach
bitset per set of free costs; extraction builds one per free group,
doubling runs of multiples.  None of this changes which nodes are visited
or why each one closes, so the stats, witnesses and refutation traces are
those of a node-by-node count.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import or_

from .blocks import (
    FEASIBLE,
    INFEASIBLE,
    NON_COSEMISIMPLE,
    NSP,
    PLAIN,
    BlockSystem,
    Certificate,
    ModeFlags,
    _Frozen,
    _require,
    _require_int,
    total_dim,
)
from .rules import (Support, _least_dim, chain_gap, check, escalate, has_nsp_core,
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
# The close reasons in the order of _Search.closed's slots: those of the
# include steps, then those of _stop but R7, which both count.
_REASONS = ("budget", "R11", "R4", "R7", "RNC", "R5", "R8", "partition")


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
    big, edge = _least_dim(r, d, d), _least_dim(r, d, 1)
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
        if d // math.gcd(d, s * rest) <= per and _least_dim(r, d, d) <= N - r:
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


def _case_bound(r: int, cells) -> tuple:
    """Lower bound on the sorted entries of the case of (0,1,1) and the level-0 blocks
    given as (d, least dimension) pairs, d ascending (see _stop).

    The sentinel (1,) sorts below every entry above level 0.
    """
    return ((0, 1, 1, r), *((0, d, d, m) for d, m in cells), (1,))


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
        self.closed = [0] * len(_REASONS)        # a count per reason, in _REASONS order
        self.best: tuple | None = None           # sorted entry tuple of the best witness
        # The d tuple and node count of the last _TRACE_CAP refuted cases,
        # and how many were refuted.
        self.trace: list[tuple[tuple[int, ...], int]] = []
        self.refuted = 0
        # The group table, a list per field indexed by group j in canonical
        # order (first cell (d1, d2), d1 <= d2, ascending; group 0 is (1, 1)):
        # first cell, least dimension (rules.least_dim), least total in units
        # of r, the rows it occupies and its off-diagonal ones.  diag lists
        # the diagonal groups past (1, 1) within N - r, level 0's; uses[d]
        # has bit j set when group j uses d, fits[s] when it fits a slack of
        # s units of r.
        self.firsts = firsts = [(a, b) for a in range(1, max_d + 1) for b in range(a, max_d + 1)]
        self.divisors = divisors = [_least_dim(r, a, b) for a, b in firsts]
        self.units = units = [(m if a == b else 2 * m) // r for (a, b), m in zip(firsts, divisors)]
        self.row_masks = [1 << a | 1 << b for a, b in firsts]
        self.off_masks = [0 if a == b else m for (a, b), m in zip(firsts, self.row_masks)]
        self.diag = [j for j, (a, b) in enumerate(firsts) if a == b > 1 and divisors[j] <= N - r]
        self.uses = uses = dict.fromkeys(range(1, max_d + 1), 0)
        fits = [0] * (N // r + 1)
        bit = 1
        for (a, b), u in zip(firsts, units):
            uses[a] |= bit
            uses[b] |= bit
            if u < len(fits):
                fits[u] |= bit
            bit <<= 1
        self.fits = list(accumulate(fits, or_))
        # table holds the placed cells above level 0; stack the placed
        # (level, j) pairs, the grouplike block first, then level by level in
        # canonical order; pointed the stack positions of the (1, 1) groups
        # at positive levels, lowest first.
        self.table = Support(max_level + 1, max_d, symmetric=True)
        self.stack: list[tuple[int, int]] = []
        self.pointed: list[int] = []
        # Bit j set when group j is closed by R11, fixed by the coradical case.
        self.unbacked = 0
        self._case_found = False
        self.bound: tuple = ()                   # the case's _case_bound
        # _feasible's reach bitsets, keyed by the bitmask of free unit costs.
        self.reach: dict[int, int] = {}

    # -- bookkeeping ------------------------------------------------------

    def _over_cap(self):
        """Refuse the search; called where nodes are counted, once the count passes the cap."""
        raise SearchCapExceeded(
            f"search exceeded the node cap of {self.node_cap} nodes; "
            "raise the cap to search this grid exhaustively"
        )

    # -- phase 1: support enumeration --------------------------------------

    def run(self):
        # R11 closes in every case the groups using a d no level-0 group has.
        level0 = {self.firsts[j][0] for j in self.diag}
        lost = 0
        for d, cells in self.uses.items():
            if d > 1 and d not in level0:
                lost |= cells
        self.stack.append((0, 0))  # the grouplike block: group 0's cell at level 0
        self._level0_dfs(0, self.N // self.r - 1, _case_bound(self.r, ()), lost)

    def _level0_dfs(self, i: int, slack: int, bound: tuple, lost: int):
        """Search the coradical case on the stack after every case that extends it.

        Extensions go by next d ascending, so the cases come in increasing
        _case_bound order, the reverse of a pre-order with the largest d first.
        A refuted case is kept as its d and node count, for _trace_line.
        slack is what is left of N once every placed block has its least
        value, in units of r, as in _subset_dfs.  bound is the case's
        _case_bound, and lost ORs uses[d] over the d the case and its
        extensions lack (rules.unbacked), those passed over or with no
        level-0 group; once they are searched, it holds the d past the
        case's last too: it is the case's R11 mask.
        """
        diag = self.diag
        self.nodes += len(diag) + 1 - i
        if self.nodes > self.node_cap:
            self._over_cap()
        stack, firsts, units, uses = self.stack, self.firsts, self.units, self.uses
        for k in range(i, len(diag)):
            j = diag[k]
            d = firsts[j][0]
            if units[j] <= slack:
                stack.append((0, j))
                self._level0_dfs(k + 1, slack - units[j],
                                 (*bound[:-1], (0, d, d, self.divisors[j]), bound[-1]), lost)
                stack.pop()
            lost |= uses[d]
        self.bound = bound
        self.unbacked = lost
        self._case_found = False
        start = self.nodes
        self._subset_dfs(1, 0, slack, 0, None)
        if not self._case_found:
            self.refuted += 1
            self.trace.append((tuple(e[1] for e in bound[1:-1]), self.nodes - start))
            if len(self.trace) > _TRACE_CAP:
                del self.trace[0]

    def _subset_dfs(self, level: int, gi: int, slack: int, open_rows: int,
                    shut: tuple | None):
        """Choose the support of a positive level from groups[gi:], then stop or go deeper.

        slack is what is left of N once every placed block has its least
        value, in units of r; the groups that fit it are fits[slack].
        open_rows is the R5 fold of the levels below (rules.escalate).  A
        level is entered with gi = 0 and shut None; the entry computes shut
        (_level_closes), which the include recursion hands down.

        It visits the exclude-everything branch first and then the includes
        from the last group down, the order an exclude-first recursion
        takes, but nests one frame per included group only.  The exclude
        run of a level is one node per remaining group plus the exclude-all
        leaf, added to the count at once.
        """
        if level > self.max_level:
            # The grid ends here; the support below is a complete candidate.
            self._stop(level - 1, open_rows, slack)
            return
        firsts, table = self.firsts, self.table
        nodes = self.nodes = self.nodes + len(firsts) + 1 - gi
        if nodes > self.node_cap:
            self._over_cap()
        if table.present[level]:
            self._subset_dfs(level + 1, 0, slack, escalate(table, open_rows, level), None)
        else:
            self._stop(level - 1, open_rows, slack)
        # Include branches: the groups from gi on within this step's slack,
        # each closed one counted in its reason's slot by popcount (budget,
        # R11, R4, R7: slots 0-3 of _REASONS), and the open ones tried from
        # the last.
        fit = self.fits[slack]
        if shut is None:
            shut = self._level_closes(level, fit)
        live, r11, r4, r7 = shut
        cand = fit >> gi << gi
        closed = self.closed
        closed[0] += len(firsts) - gi - cand.bit_count()
        closed[1] += (cand & r11).bit_count()
        closed[2] += (cand & r4).bit_count()
        closed[3] += (cand & r7).bit_count()
        tries = cand & live
        if not tries:
            return
        row = table.rows[level]
        present, offdiag = table.present, table.offdiag
        was_present, was_offdiag = present[level], offdiag[level]
        stack, pointed = self.stack, self.pointed
        units, row_masks, off_masks = self.units, self.row_masks, self.off_masks
        while tries:
            j = tries.bit_length() - 1
            tries ^= 1 << j
            a, b = firsts[j]
            was = row[a], row[b]
            row[a] |= 1 << b
            row[b] |= 1 << a
            present[level] = was_present | row_masks[j]
            offdiag[level] = was_offdiag | off_masks[j]
            if not j:  # group 0 is the pointed cell (1, 1)
                pointed.append(len(stack))
            stack.append((level, j))
            self._subset_dfs(level, j + 1, slack - units[j], open_rows, shut)
            stack.pop()
            if not j:
                pointed.pop()
            row[a], row[b] = was
        present[level], offdiag[level] = was_present, was_offdiag

    def _level_closes(self, level: int, fit: int) -> tuple[int, int, int, int]:
        """(live, r11, r4, r7) at a newly entered level whose slack fits the groups of fit.

        r11, r4 and r7 mask the groups each rule closes here, live the groups
        tried; each mask lies within fit, since every include step of the
        level has less slack.  R11 reads level 0 and R4 the levels below this
        one, all fixed until the level is left.
        """
        # B(1,1,1) is group 0 and always backed.
        r7 = fit & 1 if self.nsp and level == 1 else 0
        r4 = 0
        firsts, table = self.firsts, self.table
        # Nothing lies below level 1, so R4 closes nothing there.
        todo = fit & ~(self.unbacked | r7) if level > 1 else 0
        while todo:
            j = todo.bit_length() - 1
            todo ^= 1 << j
            # Witnesses lie strictly below this level.  The mirror cell's
            # condition is the same with i and n-i swapped, so one
            # representative suffices on symmetric supports.
            if chain_gap(table, level, *firsts[j]):
                r4 |= 1 << j
        return fit & ~(self.unbacked | r4 | r7), self.unbacked & fit, r4, r7

    # -- stop checks + phase 2 ---------------------------------------------

    def _stop(self, n_max: int, open_rows: int, slack: int):
        """Check a complete support that leaves slack >= 0 units of r past its least total.

        Each support that passes the rules gets a feasibility verdict, so the
        partition count is exact, but only one whose case bound lies below
        the best witness is assigned and sorted.  The skip is sound: a system
        with an entry above level 0 sorts above its bound, and the one without
        (a PLAIN case's leaf) sums to N, so it is no proper prefix of a witness.
        """
        self.nodes += 1
        if self.nodes > self.node_cap:
            self._over_cap()
        if self.ncss and n_max < 1:
            self.closed[4] += 1  # RNC
            return
        if open_rows:
            self.closed[5] += 1  # R5
            return
        pointed = self.pointed
        top = self.stack[pointed[-1]][0] if pointed else 0
        if self.nsp:
            # R7: the six necessary blocks; B(1,1,1) was closed by the include steps.
            if top <= 1 or not has_nsp_core(self.table, n_max):
                self.closed[3] += 1  # R7
                return
            if not nsp_forcing_ok(self.table, self.stack[pointed[0]][0], top, n_max):
                self.closed[6] += 1  # R8
                return
        self.supports += 1
        if not self._feasible(top, slack):
            self.closed[7] += 1  # partition
            return
        self._case_found = True
        if self.best is None or self.bound < self.best:
            candidate = tuple(sorted(self._assign(top)))
            if self.best is None or candidate < self.best:
                self.best = candidate

    def _free(self, top: int) -> list[tuple[int, int]]:
        """The placed (level, group) pairs phase 2 sizes, in stack order.

        That is every placed group but the grouplike block and, at a top
        pointed level top > 0, the block (top, 1, 1): both are pinned to r.
        """
        if top:
            p = self.pointed[-1]
            return self.stack[1:p] + self.stack[p + 1:]
        return self.stack[1:]

    def _feasible(self, top: int, slack: int) -> bool:
        """Whether phase 2 can assign the support on the stack, slack units of r past its least total.

        The free groups' extra multiples must fill the slack exactly, which
        depends only on which of their unit costs lie within it, so each set
        of costs has one reach bitset per search.
        """
        if slack <= 0:
            return not slack
        costs, units = 0, self.units
        for _, j in self._free(top):
            costs |= 1 << units[j]
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
        ks = _multipliers([self.units[j] for _, j in free], self.N // self.r - len(fixed))
        out = fixed
        for (level, j), k in zip(free, ks):
            value = k * self.divisors[j]
            a, b = self.firsts[j]
            out.append((level, a, b, value))
            if a != b:  # its mirror
                out.append((level, b, a, value))
        return out


def _trace_line(case: tuple[tuple[int, ...], int]) -> str:
    """The trace line of a refuted coradical case: its d past 1 and its node count.

    The close named is that of the case's first event, level 1 found empty,
    which is RNC: only NCSS problems are refuted, since a PLAIN one has the
    pointed chain (n,1,1) = r.
    """
    ds, nodes = case
    blocks = "".join(f", (0,{d},{d})" for d in ds)
    return f"coradical support {{(0,1,1){blocks}}}: closed by RNC ({nodes} nodes)"


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
        "closed": dict(sorted((k, n) for k, n in zip(_REASONS, search.closed) if n)),
        "supports_checked": search.supports,
        "regime": regime,
        "bounds": {"max_level": max_level, "max_d": max_d},
    }
    if search.best is None:
        more = ("... further cases elided",) if search.refuted > _TRACE_CAP else ()
        trace = (*map(_trace_line, reversed(search.trace)), *more)
        return Certificate(INFEASIBLE, stats=stats, refutation_summary=trace)
    witness = BlockSystem(r, {(n, a, b): v for (n, a, b, v) in search.best})
    eff_flags = NSP if nsp else NON_COSEMISIMPLE if ncss else PLAIN
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
    prime N such as 7).  The smallest order is found by trial division up to
    its first hit, so a refused survey never lists the other divisors.
    """
    if _require_int(N, "N") < 1:
        raise ValueError("N must be positive")
    least = next((d for d in range(2, math.isqrt(N) + 1) if N % d == 0), N)
    if least < N:
        _grid(N, least)
    _check_node_cap(node_cap)
    return {
        r for r in (surveyed_group_orders(N) if least < N else ())
        if solve(FeasibilityProblem(N, r, flags), node_cap=node_cap).feasible
    }

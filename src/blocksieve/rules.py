"""Necessary conditions on block systems of finite-dimensional Hopf algebras.

Every rule here is a condition that the block system of a finite-dimensional
Hopf algebra provably satisfies; a coalgebra whose block system breaks any
activated rule admits no compatible Hopf algebra structure.  Passing all rules
asserts nothing: these are necessary conditions only.

Throughout, r denotes the group order (the dimension of the grouplike part of
the coradical) and B(n,d1,d2) the block at level n with left and right simple
comodule dimensions d1 and d2.  Absent entries are read as dimension 0, except
that an absent (0,1,1) entry counts as r.
"""

from __future__ import annotations

import math

from .blocks import (BlockIndex, BlockSystem, ModeFlags, _Frozen, _require, _require_int,
                     pointed_levels)

# Rule ids in report order.  R7 and R8 are active only with the
# no-skew-primitives flag; RNC only with the non-cosemisimple flag.
RULE_ORDER = (
    "R0", "R1", "R2", "R3", "R4", "R5", "R6",
    "R7", "R8", "R9", "R11", "R12", "RNC",
)

RULE_NAMES = {
    "R0": "level-0 structure",
    "R1": "group divisibility",
    "R2": "edge divisibility",
    "R3": "antipode symmetry",
    "R4": "chain condition",
    "R5": "off-diagonal escalation",
    "R6": "top pointed block",
    "R7": "nsp necessary blocks",
    "R8": "nsp forcing",
    "R9": "level contiguity",
    "R11": "support-at-zero",
    "R12": "bicomodule divisibility",
    "RNC": "non-cosemisimplicity",
}

# One-line statement of what each rule asserts: public reference text for
# callers and readers.  Nothing in the package prints it; explain() and the
# reports name a rule by RULE_NAMES.
RULE_ANCHORS = {
    "R0": "level 0 is the coradical: diagonal blocks, dim B(0,d,d) a positive multiple of d*d, dim B(0,1,1) = |G(H)|",
    "R1": "|G(H)| = dim B(0,1,1) divides the dimension of every block",
    "R2": "for n >= 1, dim B(n,d,1) and dim B(n,1,d) are multiples of d*|G(H)|",
    "R3": "the antipode carries B(n,d1,d2) onto B(n,d2,d1), so their dimensions agree",
    "R4": "a block at level n > 1 factors through every intermediate level: witnesses b with B(i,d1,b), B(n-i,b,d2) nonzero",
    "R5": "an off-diagonal block B(n,d1,d2), d1 != d2, forces B(n2,d1,d3) nonzero for some n2 > n",
    "R6": "dim B(m,1,1) = |G(H)| at the top pointed level m",
    "R7": "without nontrivial skew-primitives: B(1,1,1) = 0 and blocks B(1,d,1), B(1,1,d), B(k,d,d) (k>1), B(m,1,1) (m>1) all nonzero for some d > 1",
    "R8": "without nontrivial skew-primitives, a pointed level l with 1 < l < m forces edge blocks at some level l' > l backed at level l'-1",
    "R9": "the filtration grows strictly: every level up to the top one carries a block",
    "R11": "superscripts index simple subcoalgebras: any d used above level 0 needs B(0,d,d) nonzero",
    "R12": "a level-n block is a sum of simple bicomodules of dimension d1*d2, so d1*d2 divides it",
    "RNC": "non-cosemisimple: some block above level 0 is nonzero",
}


class RuleViolation(_Frozen):
    """One broken rule: which rule, at which indices, and why."""

    __slots__ = ("rule", "indices", "message", "missing_witness")

    def __init__(
        self,
        rule: str,
        indices: tuple[BlockIndex, ...],
        message: str,
        missing_witness: str | None = None,
    ):
        super().__init__(rule, indices, message, missing_witness)

    def as_json_dict(self) -> dict:
        """The JSON form shared by `check --format json` and the analyzer's report."""
        return {
            "rule": self.rule,
            "indices": [[i.level, i.d1, i.d2] for i in self.indices],
            "message": self.message,
        }


def explain(v: RuleViolation) -> str:
    """Deterministic one-line rendering: rule id, rule statement, indices."""
    return f"{v.rule} {RULE_NAMES[v.rule]}: {v.message}"


def _fmt(idx) -> str:
    n, a, b = idx
    return f"B({n},{a},{b})"


# -- rule statements -----------------------------------------------------------
#
# Each rule that check and the solver share is stated here once.  The
# divisibility rules R0, R1, R2 and R12 read a block's indices only:
# divisibility gives their moduli for check, and least_dim their lcm for the
# solver.
#
# The existential rules depend only on which cells are occupied.  A Support
# holds them as integer bitmasks per level, over keys that stand for the
# dimensions d in their order, key 1 for d = 1 (so a mask & ~3 keeps the
# d > 1): rows[n][a] has bit b set when cell (n, a, b) is occupied and
# cols[n][b] bit a; present[n] masks the rows of level n and offdiag[n] those
# holding an off-diagonal cell.  check builds one from its block table, each
# d keyed by its rank, and the solver keeps one keyed by d itself, updated in
# place as it searches.

# The divisibility rules in divisibility's order, with check's words: a
# failing block "is not {words}{modulus}", words formatted with d1 * d2.
_DIVISIBILITY = (("R0", "a positive multiple of "), ("R1", "a multiple of |G(H)|="),
                 ("R2", "a multiple of {}*|G(H)|="), ("R12", "a multiple of d1*d2="))


def divisibility(r: int, n: int, d1: int, d2: int) -> tuple[int, int, int, int]:
    """The moduli of R0, R1, R2 and R12 on B(n,d1,d2): its dimension must be a
    multiple of each; one that does not apply is 1.  The ints are not checked."""
    d = d1 * d2  # level-0 cells are diagonal (BlockIndex), so d1 == d2 there
    return (1 if n else d,  # R0 at level 0
            r or 1,  # R1 for r >= 1
            (d * r or 1) if n and (d1 == 1 or d2 == 1) else 1,  # R2 on edge blocks
            d if n else 1)  # R12 above level 0


def _least_dim(r: int, d1: int, d2: int) -> int:
    """least_dim for positive ints the caller has checked."""
    return math.lcm(*divisibility(r, 1, d1, d2))


def least_dim(r: int, d1: int, d2: int) -> int:
    """The least dimension of a block B(n,d1,d2) over group order r, the lcm of its moduli.

    It is the same at every level: a diagonal block's R0 modulus at level 0,
    d*d, is its R12 modulus above, and R2 adds nothing to R1 on (1, 1).
    """
    if min(_require_int(r, "r"), _require_int(d1, "d1"), _require_int(d2, "d2")) < 1:
        raise ValueError("r, d1, d2 must be positive")
    return _least_dim(r, d1, d2)


class _Masks(dict):
    """A row or column table of a sparse Support: an absent key reads as the empty mask."""

    def __missing__(self, key):
        return 0


class Support:
    """The occupied cells of levels 0..levels-1 as bitmasks (see above).

    With width, rows and cols are lists over the keys 0..width; without,
    dicts over any int keys, so memory follows the cells.  A symmetric one,
    whose cells come with their mirrors, uses rows as cols.
    """

    __slots__ = ("rows", "cols", "present", "offdiag")

    def __init__(self, levels: int, width: int | None = None, cells=(), symmetric: bool = False):
        blank = _Masks if width is None else ([0] * (width + 1)).copy
        self.rows = rows = [blank() for _ in range(levels)]
        self.cols = cols = rows if symmetric else [blank() for _ in range(levels)]
        self.present = present = [0] * levels
        self.offdiag = offdiag = [0] * levels
        for (n, a, b) in cells:
            rows[n][a] |= 1 << b
            cols[n][b] |= 1 << a
            present[n] |= 1 << a
            if a != b:
                offdiag[n] |= 1 << a


def _bits(mask: int):
    """The positions of mask's set bits, highest first."""
    while mask:
        yield (k := mask.bit_length() - 1)
        mask ^= 1 << k


def chain_gap(t: Support, n: int, d1: int, d2: int, start: int = 1) -> int:
    """R4: the first split i, start <= i < n, with no b such that (i,d1,b) and
    (n-i,b,d2) are occupied; 0 when every such split has a witness."""
    rows, cols = t.rows, t.cols
    for i in range(start, n):
        if not rows[i][d1] & cols[n - i][d2]:
            return i
    return 0


def escalate(t: Support, open_rows: int, n: int) -> int:
    """R5 fold step: the open rows once level n >= 1 is laid on the levels folded into open_rows.

    A row is open when the highest folded level that holds it holds an
    off-diagonal cell of it: level n closes the rows it holds, then opens
    those it holds an off-diagonal cell of.
    """
    return open_rows & ~t.present[n] | t.offdiag[n]


def stranded(t: Support) -> list[tuple[int, int, int]]:
    """R5: each off-diagonal cell (n, d1, d2), n >= 1, with row d1 empty at every higher level.

    The positive levels are folded bottom up with escalate; each row still
    open is stranded at its highest level.  Cells come top level first.
    """
    open_rows = 0
    for n in range(1, len(t.present)):
        open_rows = escalate(t, open_rows, n)
    out = []
    for n in range(len(t.present) - 1, 0, -1):
        here = open_rows & t.present[n]
        open_rows ^= here
        out += [(n, a, b) for a in _bits(here) for b in _bits(t.rows[n][a] & ~(1 << a))]
    return out


def unbacked(t: Support, uses: dict[int, int]) -> int:
    """R11: the OR of the masks uses[d] of the cells using d over each d whose
    coradical block (0, d, d) is absent."""
    coradical, out = t.present[0], 0
    for d, cells in uses.items():
        if not coradical >> d & 1:
            out |= cells
    return out


def backed(t: Support, cell: tuple[int, int]) -> bool:
    """R11 for one cell (d1, d2): both its dimensions have their coradical blocks."""
    d1, d2 = cell
    return not unbacked(t, {d1: 1, d2: 1})


def has_nsp_core(t: Support, n_max: int) -> bool:
    """R7: some d > 1 with (1,d,1), (1,1,d) and some (k,d,d), 1 < k <= n_max, occupied.

    Driven by the level-1 edge cells, so the cost does not grow with d.
    """
    if n_max < 2:
        return False
    rows = t.rows
    core = rows[1][1] & t.cols[1][1] & ~3
    return any(rows[k][a] >> a & 1 for a in _bits(core) for k in range(2, n_max + 1))


def nsp_forcing_ok(t: Support, l: int | None, m: int, n_max: int) -> bool:
    """R8 for least and greatest positive pointed levels l and m, n_max the highest level.

    Holds when l < m fails, or when l > 1 and some level l' > l occupies an
    edge cell (l',d1,1) with (l'-1,d1,d3) occupied and an edge cell (l',1,d2)
    with (l'-1,d4,d2) occupied, all of d1..d4 > 1.
    """
    if l is None or l >= m:
        return True
    if l == 1:
        return False
    rows, cols = t.rows, t.cols
    return any(
        any(rows[lp - 1][a] & ~3 for a in _bits(cols[lp][1] & ~3))
        and any(cols[lp - 1][b] & ~3 for b in _bits(rows[lp][1] & ~3))
        for lp in range(l + 1, n_max + 1)
    )


def check(s: BlockSystem, flags: ModeFlags) -> list[RuleViolation]:
    """Evaluate every activated rule; an empty list means all of them pass.

    Violations are data, not errors, and come back sorted by rule id (in
    RULE_ORDER) and then by index.  Raises ValueError unless s is a
    BlockSystem and flags a ModeFlags.  The work grows with s's deepest
    level, which BlockIndex bounds by MAX_BLOCK_LEVEL where s is built.
    """
    r = _require(s, BlockSystem, "s").group_order
    _require(flags, ModeFlags, "flags")
    nsp = flags.no_skew_primitives

    # Effective table: stored entries plus the implicit (0,1,1) = r, keyed by
    # int tuples, which sort as BlockIndex does; violations build BlockIndex.
    dims = {(i.level, i.d1, i.d2): v for i, v in s.blocks.items()}
    stored_011 = dims.get((0, 1, 1))
    if stored_011 is None and r > 0:
        dims[0, 1, 1] = r
    table = sorted(dims.items())
    n_max = table[-1][0][0] if table else 0
    # The support table keys each d by its rank, d = 1 by 1, so its masks
    # have one bit per distinct d however large the d are; it is sparse
    # unless its lists would be small.
    ds = sorted({1, *(i[1] for i in dims), *(i[2] for i in dims)})
    key = {d: k for k, d in enumerate(ds, 1)}
    t = Support(n_max + 1, len(ds) if n_max * len(ds) <= 1024 else None,
                [(n, key[d1], key[d2]) for n, d1, d2 in dims])
    out: dict[str, list[RuleViolation]] = {}

    def violate(rule, indices, message, missing=None):
        out.setdefault(rule, []).append(
            RuleViolation(rule, tuple(BlockIndex(*i) for i in indices), message, missing))

    # R0: coradical structure.
    if r < 1:
        violate("R0", [], f"group order is {r}; a Hopf-algebra candidate needs at least the unit grouplike")
    if stored_011 is not None and stored_011 != r:
        violate("R0", [(0, 1, 1)], f"dim B(0,1,1)={stored_011} but group order is {r}")

    # The divisibility rules, R3 and R4 read each entry on its own, so one
    # pass over the sorted table serves them all, and finds the entry above
    # level 0 that first uses each d (R11); violations stay in index order.
    # Messages are formatted, and moduli read one by one, only on failure.
    first_use: dict[int, tuple[int, int, int]] = {}
    for idx, v in table:
        n, d1, d2 = idx
        moduli = divisibility(r, n, d1, d2)
        if v % math.lcm(*moduli):
            for (rule, words), modulus in zip(_DIVISIBILITY, moduli):
                if v % modulus:
                    violate(rule, [idx],
                            f"dim {_fmt(idx)}={v} is not {words.format(d1 * d2)}{modulus}")
        if n >= 1:
            first_use.setdefault(d1, idx)
            first_use.setdefault(d2, idx)
            # R3: dim B(n,d1,d2) = dim B(n,d2,d1); absent counts as 0.  A pair
            # is compared at its first index in the table: the one with
            # d1 < d2, or a mirror whose partner is absent.
            if d1 != d2:
                mirror = (n, d2, d1)
                w = dims.get(mirror, 0)
                if (d1 < d2 or not w) and v != w:
                    big, small = (idx, mirror) if v > w else (mirror, idx)
                    violate("R3", [big, small],
                            f"dim {_fmt(big)}={max(v, w)} but dim {_fmt(small)}={min(v, w)}")
        # R4: chain condition through every intermediate level (none below 2).
        i = n > 1 and chain_gap(t, n, key[d1], key[d2])
        while i:
            violate("R4", [idx], f"dim {_fmt(idx)}={v} has no chain witness at split {i}+{n - i}",
                    missing=f"no b with B({i},{d1},b) and B({n - i},b,{d2}) nonzero")
            i = chain_gap(t, n, key[d1], key[d2], i + 1)

    # R5: off-diagonal blocks escalate to a strictly higher level in the same row.
    for n, a, b in sorted(stranded(t)):
        idx = n, d1, d2 = n, ds[a - 1], ds[b - 1]
        violate("R5", [idx], f"dim {_fmt(idx)}={dims[idx]} with {d1}!={d2} escalates nowhere",
                missing=f"no d3 and n2>{n} with B(n2,{d1},d3) nonzero")

    # R6: the top pointed block has dimension exactly r.
    l, m = pointed_levels(s)
    top = dims.get((m, 1, 1), 0)
    if r >= 1 and top != r:
        violate("R6", [(m, 1, 1)],
                f"top pointed block must satisfy dim B({m},1,1) = |G(H)| = {r}, got {top}")

    if nsp:
        # R7: no skew-primitive level-1 pointed block, and the six necessary
        # blocks exist for a common d > 1.
        skew = dims.get((1, 1, 1))
        if skew is not None:
            violate("R7", [(1, 1, 1)],
                    f"B(1,1,1) must be absent without nontrivial skew-primitives, got dim {skew}")
        if not has_nsp_core(t, n_max):
            violate("R7", [], "no d>1 with B(1,d,1), B(1,1,d), and B(k,d,d) (k>1) all nonzero",
                    missing="necessary blocks B(1,d,1), B(1,1,d), B(k,d,d) with k>1")
        if m <= 1:
            violate("R7", [], "no pointed block B(m,1,1) with m>1",
                    missing="a pointed block above level 1")

        # R8: an intermediate pointed level forces edge blocks higher up.
        if not nsp_forcing_ok(t, l, m, n_max):
            violate("R8", [(l, 1, 1), (m, 1, 1)],
                    f"pointed levels l={l} < m={m} force more structure; none found",
                    missing="l'>l>1 and d1,d2,d3,d4>1 with B(l',d1,1), B(l',1,d2), "
                            "B(l'-1,d1,d3), B(l'-1,d4,d2) nonzero")

    # R9: no gaps below the top occupied level.
    for n in range(1, n_max + 1):
        if not t.present[n]:
            violate("R9", [], f"level {n} is empty but level {n_max} is occupied")

    # R11: every d used above level 0 is backed by a coradical block.
    for d, first in sorted(first_use.items()):
        if not backed(t, (key[d], key[d])):
            violate("R11", [first],
                    f"{_fmt(first)} uses d={d} with no coradical block B(0,{d},{d})")

    # RNC: the coalgebra is declared non-cosemisimple (ModeFlags folds NSP in).
    if flags.non_cosemisimple and n_max < 1:
        violate("RNC", [], "cosemisimple: no block above level 0")

    return [v for rid in sorted(out, key=RULE_ORDER.index) for v in out[rid]]


"""Block systems of finite-dimensional coalgebras.

A block system records, per filtration level n and per pair of simple-comodule
dimensions (d1, d2), the dimension of the corresponding direct summand
B(n, d1, d2).  Level 0 is the coradical: its blocks are diagonal and the
(0, 1, 1) block is spanned by the grouplike elements, so its dimension is the
group order r.  Zero blocks are not stored; a sparse map keeps search states
small.

All values in this module are immutable after construction (assigning or
deleting a field raises AttributeError) and safe to share across threads or
processes; they pickle and copy by rebuilding through their constructors.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Mapping

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"

# Deepest block level a BlockIndex accepts, so no BlockSystem, parsed or built
# in code, reaches rules.check with a deeper one.  The rule check costs work
# per level up to the deepest one, two violations per missing level, so a
# level of 10^8 would run for hours; analyze (dimension <= 256) and solve
# (grids of <= 200 levels) never produce a level near this one.
MAX_BLOCK_LEVEL = 10_000


class BlockSystemParseError(ValueError):
    """Raised for malformed block-system JSON; the message names the offending entry."""


class _Frozen:
    """Base of the immutable value types: fields are the subclass's __slots__, in order.

    A subclass constructor validates its arguments and hands the fields, in
    that order, to _Frozen.__init__.  Equality holds between instances of the
    same class with equal fields and hashing hashes the tuple of fields; repr
    names every field; pickling and copying rebuild the value through the
    constructor, which takes the fields positionally.  Assigning or deleting a
    field raises AttributeError.
    """

    __slots__ = ()

    def __init__(self, *fields):
        # past the __setattr__ below, which refuses assignment
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return self.__class__, self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


@functools.total_ordering
class BlockIndex(_Frozen):
    """Index (level, d1, d2) of one block.

    Every field is an int, the level at most MAX_BLOCK_LEVEL and both
    dimensions positive.  Level-0 blocks are diagonal by definition, so
    d1 != d2 is rejected there.
    Field order gives the canonical lexicographic ordering used everywhere:
    __lt__ states it and functools.total_ordering derives <=, > and >=.
    """

    __slots__ = ("level", "d1", "d2")

    def __init__(self, level: int, d1: int, d2: int):
        if type(level) is not int or type(d1) is not int or type(d2) is not int:
            raise ValueError(f"block index fields must be ints, got ({level!r}, {d1!r}, {d2!r})")
        if not 0 <= level <= MAX_BLOCK_LEVEL:
            raise ValueError(
                f"block level must be in 0..MAX_BLOCK_LEVEL = {MAX_BLOCK_LEVEL}, got {level}")
        if d1 < 1 or d2 < 1:
            raise ValueError(f"comodule dimensions must be >= 1, got ({d1}, {d2})")
        if level == 0 and d1 != d2:
            raise ValueError(f"level-0 block must be diagonal, got ({level}, {d1}, {d2})")
        _set_level(self, level)
        _set_d1(self, d1)
        _set_d2(self, d2)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.level == other.level and self.d1 == other.d1 and self.d2 == other.d2
        return NotImplemented

    def __hash__(self):
        return hash((self.level, self.d1, self.d2))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            if self.level != other.level:
                return self.level < other.level
            if self.d1 != other.d1:
                return self.d1 < other.d1
            return self.d2 < other.d2
        return NotImplemented

    def __iter__(self):
        return iter((self.level, self.d1, self.d2))


# The slot descriptors' setters: one call per field, the cheapest way past
# the refusing __setattr__ for the most constructed value type.
_set_level = BlockIndex.level.__set__
_set_d1 = BlockIndex.d1.__set__
_set_d2 = BlockIndex.d2.__set__

CORADICAL_POINTED = BlockIndex(0, 1, 1)


class ModeFlags(_Frozen):
    """Which optional necessary conditions are in force.

    no_skew_primitives implies non_cosemisimple (the skew-primitive-free class
    is only interesting away from the cosemisimple case).  auto_nsp asks the
    solver to derive no_skew_primitives from gcd(r, N/r) = 1.
    """

    __slots__ = ("non_cosemisimple", "no_skew_primitives", "auto_nsp")

    def __init__(
        self,
        non_cosemisimple: bool = False,
        no_skew_primitives: bool = False,
        auto_nsp: bool = False,
    ):
        for name, value in zip(self.__slots__, (non_cosemisimple, no_skew_primitives, auto_nsp)):
            if type(value) is not bool:
                raise ValueError(f"{name} must be a bool, got {value!r}")
        super().__init__(non_cosemisimple or no_skew_primitives, no_skew_primitives, auto_nsp)


NSP = ModeFlags(no_skew_primitives=True)
NON_COSEMISIMPLE = ModeFlags(non_cosemisimple=True)
PLAIN = ModeFlags()


def _entry(idx, dim) -> tuple[BlockIndex, int]:
    """The block-table entry (idx, dim) as (BlockIndex, dim), or a ValueError.

    idx is a BlockIndex or a (level, d1, d2) tuple that BlockIndex accepts,
    and dim a positive int (zero blocks are not stored).  BlockSystem checks
    each entry here, and parse_block_system each entry of its document.
    """
    if not isinstance(idx, BlockIndex):
        if not isinstance(idx, tuple) or len(idx) != 3:
            raise ValueError(f"block index must be a (level, d1, d2) tuple, got {idx!r}")
        idx = BlockIndex(*idx)
    if type(dim) is not int or dim <= 0:
        raise ValueError(
            f"block dimension at {tuple(idx)} must be a positive integer, got {dim!r}; "
            "zero blocks must be omitted"
        )
    return idx, dim


class BlockSystem(_Frozen):
    """A sparse block-dimension table together with the group order r.

    The group order is stored separately from the (0,1,1) entry so that rule
    checks can detect inconsistency between the two instead of silently
    normalizing.  A stored (0,1,1) entry is therefore allowed to disagree with
    group_order; absent (0,1,1) is read as r (see total_dim).

    group_order 0 is permitted so the analyzer can represent coalgebras with
    no grouplikes at all; such systems fail the rule check, as they must.

    blocks is a dict, so a BlockSystem is unhashable.  Each of its entries
    is checked by _entry, so a level above MAX_BLOCK_LEVEL, a malformed
    index, a dimension that is not a positive int or an index given twice
    (as a tuple and as a BlockIndex) raises ValueError here.
    """

    __slots__ = ("group_order", "blocks")

    def __init__(self, group_order: int, blocks: dict[BlockIndex, int] | None = None):
        if type(group_order) is not int:
            raise ValueError(f"group order must be an int, got {group_order!r}")
        if group_order < 0:
            raise ValueError(f"group order must be >= 0, got {group_order}")
        blocks = _require({} if blocks is None else blocks, Mapping, "blocks")
        table: dict[BlockIndex, int] = {}
        for idx, dim in blocks.items():
            idx, dim = _entry(idx, dim)
            size = len(table)
            table[idx] = dim
            if len(table) == size:  # one hash per entry
                raise ValueError(f"duplicate index {tuple(idx)}")
        super().__init__(group_order, table)

    def entries(self) -> tuple[tuple[int, int, int, int], ...]:
        """Stored entries as (level, d1, d2, dim), canonically sorted."""
        return tuple(sorted((i.level, i.d1, i.d2, v) for i, v in self.blocks.items()))

    def __repr__(self):
        body = ", ".join(f"({i.level},{i.d1},{i.d2}):{v}" for i, v in sorted(self.blocks.items()))
        return f"BlockSystem(r={self.group_order}, {{{body}}})"


def total_dim(s: BlockSystem) -> int:
    """Sum of all block dimensions, counting (0,1,1) as group_order if absent."""
    base = sum(s.blocks.values())
    if CORADICAL_POINTED not in s.blocks:
        base += s.group_order
    return base


def pointed_levels(s: BlockSystem) -> tuple[int | None, int]:
    """(l, m): least and greatest positive pointed levels.

    m is the largest n with a (n,1,1) entry, or 0 when only the coradical
    block exists.  l is the least n >= 1 with a (n,1,1) entry, or None.
    """
    positive = [i.level for i in s.blocks if i.d1 == 1 and i.d2 == 1 and i.level >= 1]
    if not positive:
        return None, 0
    return min(positive), max(positive)


def transpose(s: BlockSystem) -> BlockSystem:
    """Swap every (n,d1,d2) entry to (n,d2,d1); the antipode image of the system."""
    return BlockSystem(
        s.group_order,
        {BlockIndex(i.level, i.d2, i.d1): v for i, v in s.blocks.items()},
    )


_TOP_KEYS = frozenset({"group_order", "blocks"})
_ENTRY_KEYS = frozenset({"level", "d1", "d2", "dim"})


def _require_int(value, what: str) -> int:
    """value if it is an int and not a bool; else ValueError("<what> must be an integer, ...")."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _require(value, cls: type, what: str):
    """value if it is a cls; else ValueError("<what> must be a <cls>, got ...")."""
    if not isinstance(value, cls):
        raise ValueError(f"{what} must be a {cls.__name__}, got {value!r}")
    return value


def _json_object(doc, fields: frozenset, error: type[ValueError], where: str = ""):
    """doc as a JSON object holding exactly the given fields, or error(message).

    Without where, doc is a whole document, UTF-8 bytes or text, and is
    decoded and parsed here; with it, doc is a value read from one and
    where ("blocks[3]") starts each message.  Unknown fields are named
    before missing ones.  parse_block_system and parse_coalgebra read their
    documents, and parse_block_system its entries, through this one check.
    """
    if not where:
        try:
            doc = json.loads(doc.decode("utf-8") if isinstance(doc, bytes) else doc)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise error(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{where or 'top level'} must be a JSON object")
    at = f"{where}: " if where else ""
    unknown = doc.keys() - fields
    if unknown:
        raise error(f"{at}unknown fields rejected: {sorted(unknown)}")
    missing = fields - doc.keys()
    if missing:
        raise error(f"{at}missing fields: {sorted(missing)}")
    return doc


def parse_block_system(text: bytes | str) -> BlockSystem:
    """Parse the block-system JSON interchange format.

    Schema: {"group_order": r, "blocks": [{"level": n, "d1": a, "d2": b,
    "dim": v}, ...]}.  Field order is free.  This checks the document: its
    fields, a positive int group_order, blocks as a list of objects with
    the four fields, and no index twice.  Each entry is checked as
    BlockSystem checks it, so a level above MAX_BLOCK_LEVEL is refused
    there; its ValueError is raised again as BlockSystemParseError, prefixed
    by the entry's position ("blocks[3]: ...").
    """
    obj = _json_object(text, _TOP_KEYS, BlockSystemParseError)
    r = obj["group_order"]
    if type(r) is not int or r < 1:
        raise BlockSystemParseError(f"group_order must be a positive integer, got {r!r}")
    if not isinstance(obj["blocks"], list):
        raise BlockSystemParseError("'blocks' must be a list")
    blocks: dict[BlockIndex, int] = {}
    for k, entry in enumerate(obj["blocks"]):
        where = f"blocks[{k}]"
        entry = _json_object(entry, _ENTRY_KEYS, BlockSystemParseError, where)
        try:
            idx, v = _entry((entry["level"], entry["d1"], entry["d2"]), entry["dim"])
        except ValueError as exc:
            raise BlockSystemParseError(f"{where}: {exc}") from exc
        if idx in blocks:
            raise BlockSystemParseError(f"{where}: duplicate index {tuple(idx)}")
        blocks[idx] = v
    return BlockSystem(r, blocks)


def block_system_payload(s: BlockSystem) -> dict:
    """The JSON object of a block system: indices sorted lexicographically by (level, d1, d2)."""
    return {
        "group_order": s.group_order,
        "blocks": [
            {"level": n, "d1": a, "d2": b, "dim": v} for (n, a, b, v) in s.entries()
        ],
    }


def serialize_block_system(s: BlockSystem) -> bytes:
    """Canonical UTF-8 JSON bytes of block_system_payload(s)."""
    return json.dumps(block_system_payload(s)).encode("utf-8")


class Certificate(_Frozen):
    """Outcome of a feasibility query.

    Feasible certificates carry a witness system that passes the full rule
    check and sums to the queried dimension; infeasible ones carry a bounded
    refutation trace (top-level case split plus, for each case, the rule that
    closed its level-0 leaf).  stats records node counts and which rules
    fired per branch class; it is a dict (a fresh one by default), so a
    Certificate is unhashable.
    """

    __slots__ = ("verdict", "witness", "stats", "refutation_summary")

    def __init__(
        self,
        verdict: str,
        witness: BlockSystem | None = None,
        stats: dict | None = None,
        refutation_summary: tuple[str, ...] | None = None,
    ):
        if verdict not in (FEASIBLE, INFEASIBLE):
            raise ValueError(f"verdict must be '{FEASIBLE}' or '{INFEASIBLE}'")
        if (verdict == FEASIBLE) != (witness is not None):
            raise ValueError("witness must be present exactly when feasible")
        super().__init__(verdict, witness, {} if stats is None else stats, refutation_summary)

    @property
    def feasible(self) -> bool:
        return self.verdict == FEASIBLE

    def as_json_dict(self) -> dict:
        out: dict = {"verdict": self.verdict, "stats": self.stats}
        if self.witness is not None:
            out["witness"] = block_system_payload(self.witness)
        if self.refutation_summary is not None:
            out["refutation"] = list(self.refutation_summary)
        return out

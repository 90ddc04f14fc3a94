import itertools
import json
import random

import pytest

from blocksieve.analyzer import MAX_ANALYZE_DIM
from blocksieve.blocks import (
    MAX_BLOCK_LEVEL,
    BlockIndex,
    BlockSystem,
    BlockSystemParseError,
    Certificate,
    ModeFlags,
    block_system_payload,
    parse_block_system,
    pointed_levels,
    serialize_block_system,
    total_dim,
    transpose,
)
from blocksieve.solver import LEVEL_CAP, minimal_form

from conftest import assert_value_type, random_system


class TestBlockIndex:
    def test_level0_must_be_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            BlockIndex(0, 2, 1)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            BlockIndex(-1, 1, 1)
        with pytest.raises(ValueError):
            BlockIndex(1, 0, 1)

    def test_canonical_ordering(self):
        idxs = [BlockIndex(1, 2, 1), BlockIndex(0, 1, 1), BlockIndex(1, 1, 2)]
        assert sorted(idxs) == [BlockIndex(0, 1, 1), BlockIndex(1, 1, 2), BlockIndex(1, 2, 1)]

    def test_every_comparison_agrees_with_the_tuples(self):
        idxs = [BlockIndex(n, a, b) for n in range(3) for a in range(1, 4) for b in range(1, 4)
                if n or a == b]
        random.Random(7).shuffle(idxs)
        assert [tuple(i) for i in sorted(idxs)] == sorted(tuple(i) for i in idxs)
        for x, y in itertools.product(idxs, repeat=2):
            tx, ty = tuple(x), tuple(y)
            assert (x < y, x <= y, x > y, x >= y, x == y) == (
                tx < ty, tx <= ty, tx > ty, tx >= ty, tx == ty)
        with pytest.raises(TypeError):
            BlockIndex(1, 1, 1) < (1, 1, 2)


class TestValueTypes:
    """Construction, equality, hashing, repr, immutability and pickling of the value types."""

    def test_block_index(self):
        idx = BlockIndex(d2=3, level=1, d1=2)
        assert_value_type(idx, {"level": 1, "d1": 2, "d2": 3},
                          "BlockIndex(level=1, d1=2, d2=3)")
        assert idx == BlockIndex(1, 2, 3)
        assert hash(idx) == hash(BlockIndex(1, 2, 3)) == hash((1, 2, 3))
        assert tuple(idx) == (1, 2, 3)
        with pytest.raises(TypeError):
            BlockIndex(1, 2)
        with pytest.raises(TypeError):
            BlockIndex(1, 2, 3, level=1)

    def test_mode_flags(self):
        assert_value_type(ModeFlags(), {"non_cosemisimple": False, "no_skew_primitives": False,
                                        "auto_nsp": False},
                          "ModeFlags(non_cosemisimple=False, no_skew_primitives=False, auto_nsp=False)")
        nsp = ModeFlags(no_skew_primitives=True)
        assert_value_type(nsp, {"non_cosemisimple": True, "no_skew_primitives": True,
                                "auto_nsp": False},
                          "ModeFlags(non_cosemisimple=True, no_skew_primitives=True, auto_nsp=False)")
        assert nsp == ModeFlags(True, True) == ModeFlags(False, True)
        assert hash(nsp) == hash(ModeFlags(True, True, False))
        assert ModeFlags(auto_nsp=True) != ModeFlags()
        assert len({ModeFlags(), ModeFlags(False), nsp, ModeFlags(True, True)}) == 2

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"non_cosemisimple": "no"}, "non_cosemisimple must be a bool, got 'no'"),
            ({"non_cosemisimple": 1}, "non_cosemisimple must be a bool, got 1"),
            ({"no_skew_primitives": 0}, "no_skew_primitives must be a bool, got 0"),
            ({"auto_nsp": None}, "auto_nsp must be a bool, got None"),
        ],
    )
    def test_mode_flags_must_be_bools(self, kwargs, message):
        with pytest.raises(ValueError) as info:
            ModeFlags(**kwargs)
        assert str(info.value) == message

    def test_block_system(self):
        s = BlockSystem(3, {(0, 1, 1): 3, BlockIndex(1, 2, 1): 6})
        assert_value_type(s, {"group_order": 3,
                              "blocks": {BlockIndex(0, 1, 1): 3, BlockIndex(1, 2, 1): 6}},
                          "BlockSystem(r=3, {(0,1,1):3, (1,2,1):6})")
        assert s == BlockSystem(group_order=3, blocks={(1, 2, 1): 6, (0, 1, 1): 3})
        assert s != BlockSystem(3, {(0, 1, 1): 3})
        with pytest.raises(TypeError, match="unhashable"):
            hash(s)
        empty = BlockSystem(2)
        assert_value_type(empty, {"group_order": 2, "blocks": {}}, "BlockSystem(r=2, {})")
        assert empty.blocks is not BlockSystem(2).blocks

    def test_certificate(self):
        cert = Certificate("infeasible")
        assert_value_type(cert, {"verdict": "infeasible", "witness": None, "stats": {},
                                 "refutation_summary": None},
                          "Certificate(verdict='infeasible', witness=None, stats={}, "
                          "refutation_summary=None)")
        assert cert.stats is not Certificate("infeasible").stats
        with pytest.raises(TypeError, match="unhashable"):
            hash(cert)
        s = minimal_form(2, 2)
        feasible = Certificate(verdict="feasible", witness=s, stats={"nodes": 3})
        assert_value_type(feasible, {"verdict": "feasible", "witness": s, "stats": {"nodes": 3},
                                     "refutation_summary": None},
                          f"Certificate(verdict='feasible', witness={s!r}, stats={{'nodes': 3}}, "
                          "refutation_summary=None)")
        with pytest.raises(TypeError, match="unhashable"):
            hash(feasible)
        with pytest.raises(ValueError, match="witness"):
            Certificate("feasible")


class TestIntegerFields:
    """Every field of BlockIndex and BlockSystem is an int; a float or a bool is refused."""

    @pytest.mark.parametrize("fields", [(1.5, 1, 1), (True, 2, 1), (1, 2.0, 1), (1, 1, False)])
    def test_block_index(self, fields):
        message = f"block index fields must be ints, got {fields!r}"
        with pytest.raises(ValueError) as info:
            BlockIndex(*fields)
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            BlockSystem(1, {fields: 1})
        assert str(info.value) == message

    @pytest.mark.parametrize("r", [2.5, 2.0, True])
    def test_group_order(self, r):
        with pytest.raises(ValueError) as info:
            BlockSystem(r, {(1, 1, 1): 2})
        assert str(info.value) == f"group order must be an int, got {r!r}"

    @pytest.mark.parametrize("dim", [2.0, True])
    def test_block_dimension(self, dim):
        with pytest.raises(ValueError, match="must be a positive integer"):
            BlockSystem(1, {(1, 1, 1): dim})

    @pytest.mark.parametrize("text, message", [
        ('{"group_order": true, "blocks": []}',
         "group_order must be a positive integer, got True"),
        ('{"group_order": 1, "blocks": [{"level": 1.5, "d1": 1, "d2": 1, "dim": 1}]}',
         "blocks[0]: block index fields must be ints, got (1.5, 1, 1)"),
        ('{"group_order": 1, "blocks": [{"level": 1, "d1": 1, "d2": 1, "dim": "1"}]}',
         "blocks[0]: block dimension at (1, 1, 1) must be a positive integer, got '1'; "
         "zero blocks must be omitted"),
    ])
    def test_parse_messages(self, text, message):
        with pytest.raises(BlockSystemParseError) as info:
            parse_block_system(text)
        assert str(info.value) == message


class TestBlockSystem:
    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError, match="omitted"):
            BlockSystem(2, {(1, 1, 1): 0})

    def test_tuple_keys_normalized(self):
        s = BlockSystem(2, {(1, 2, 1): 4})
        assert s.blocks == {BlockIndex(1, 2, 1): 4}

    def test_inconsistent_coradical_entry_is_storable(self):
        # rule checks flag it; construction must not normalize it away
        s = BlockSystem(3, {(0, 1, 1): 5})
        assert s.blocks[BlockIndex(0, 1, 1)] == 5


BUILT = {
    (1.5, 1, 1, 2): "block index fields must be ints, got (1.5, 1, 1)",
    (1, True, 1, 2): "block index fields must be ints, got (1, True, 1)",
    (-1, 1, 1, 1): f"block level must be in 0..MAX_BLOCK_LEVEL = {MAX_BLOCK_LEVEL}, got -1",
    (MAX_BLOCK_LEVEL + 1, 1, 1, 1):
        f"block level must be in 0..MAX_BLOCK_LEVEL = {MAX_BLOCK_LEVEL}, got {MAX_BLOCK_LEVEL + 1}",
    (1, 0, 1, 1): "comodule dimensions must be >= 1, got (0, 1)",
    (0, 2, 1, 4): "level-0 block must be diagonal, got (0, 2, 1)",
    (1, 1, 2, 0): "block dimension at (1, 1, 2) must be a positive integer, got 0; "
                  "zero blocks must be omitted",
    (1, 1, 2, -4): "block dimension at (1, 1, 2) must be a positive integer, got -4; "
                   "zero blocks must be omitted",
    (1, 1, 2, "1"): "block dimension at (1, 1, 2) must be a positive integer, got '1'; "
                    "zero blocks must be omitted",
}


class TestEntryCheck:
    """BlockSystem(...) checks each entry; parse_block_system names it by position."""

    @pytest.mark.parametrize("entry", list(BUILT), ids=repr)
    def test_one_message_on_both_paths(self, entry):
        level, d1, d2, dim = entry
        text = json.dumps({"group_order": 1, "blocks": [
            {"level": 1, "d1": 1, "d2": 1, "dim": 1},
            {"level": level, "d1": d1, "d2": d2, "dim": dim}]})
        with pytest.raises(BlockSystemParseError) as parsed:
            parse_block_system(text)
        with pytest.raises(ValueError) as built:
            BlockSystem(1, {(level, d1, d2): dim})
        assert type(built.value) is ValueError
        assert str(built.value) == BUILT[entry]
        assert str(parsed.value) == f"blocks[1]: {BUILT[entry]}"

    @pytest.mark.parametrize("blocks, message", [
        ({(1, 2): 3}, "block index must be a (level, d1, d2) tuple, got (1, 2)"),
        ({5: 3}, "block index must be a (level, d1, d2) tuple, got 5"),
        ([((1, 1, 1), 3)], "blocks must be a Mapping, got [((1, 1, 1), 3)]"),
        # only None means no blocks: a falsy non-Mapping is refused too
        ([], "blocks must be a Mapping, got []"),
        (0, "blocks must be a Mapping, got 0"),
        ("", "blocks must be a Mapping, got ''"),
        (False, "blocks must be a Mapping, got False"),
        ((), "blocks must be a Mapping, got ()"),
        (set(), "blocks must be a Mapping, got set()"),
    ])
    def test_malformed_blocks_raise_value_error(self, blocks, message):
        with pytest.raises(ValueError) as info:
            BlockSystem(1, blocks)
        assert type(info.value) is ValueError
        assert str(info.value) == message

    @pytest.mark.parametrize("blocks", [
        {(1, 1, 1): 2, BlockIndex(1, 1, 1): 3},
        {BlockIndex(1, 1, 1): 3, (1, 1, 1): 2},
    ], ids=["tuple first", "BlockIndex first"])
    def test_index_given_twice_is_refused(self, blocks):
        # a tuple key and the equal BlockIndex are distinct dict keys, so
        # neither dimension may silently win; the parser refuses the same
        # duplicate in JSON in the same words
        with pytest.raises(ValueError) as info:
            BlockSystem(1, blocks)
        assert type(info.value) is ValueError
        assert str(info.value) == "duplicate index (1, 1, 1)"

    @pytest.mark.parametrize("text, message", [
        (b'{"group_order": 1, "blocks": [\xff]}', "not valid JSON: 'utf-8' codec can't decode"),
        ('[1]', "top level must be a JSON object"),
        ('{"group_order": 1}', "missing fields: ['blocks']"),
        ('{"group_order": 0, "blocks": []}', "group_order must be a positive integer, got 0"),
        ('{"group_order": 1, "blocks": {}}', "'blocks' must be a list"),
        ('{"group_order": 1, "blocks": [[1, 1, 1, 1]]}', "blocks[0] must be a JSON object"),
        ('{"group_order": 1, "blocks": [{"level": 1, "d1": 1, "d2": 1}]}',
         "blocks[0]: missing fields: ['dim']"),
        ('{"group_order": 1, "blocks": [{"level": 1, "d1": 1, "d2": 1, "dim": 1}, '
         '{"dim": 1, "d2": 1, "d1": 1, "level": 1}]}', "blocks[1]: duplicate index (1, 1, 1)"),
    ])
    def test_document_messages(self, text, message):
        with pytest.raises(BlockSystemParseError) as info:
            parse_block_system(text)
        assert str(info.value).startswith(message)


class TestTotalDim:
    def test_group_algebra(self):
        assert total_dim(BlockSystem(3, {(0, 1, 1): 3})) == 3

    def test_minimal_form_l32(self):
        assert total_dim(minimal_form(3, 2)) == 42

    def test_four_dimensional_pointed(self):
        assert total_dim(BlockSystem(2, {(0, 1, 1): 2, (1, 1, 1): 2})) == 4

    def test_implicit_coradical_pointed_block(self):
        assert total_dim(BlockSystem(3, {})) == 3

    def test_additive_over_disjoint_union(self):
        rng = random.Random(11)
        for _ in range(25):
            a = random_system(rng)
            extra = {
                BlockIndex(5, 1, 2): 7,
                BlockIndex(6, 2, 2): 9,
            }
            merged = BlockSystem(a.group_order, {**a.blocks, **extra})
            assert total_dim(merged) == total_dim(a) + 16


class TestPointedLevels:
    def test_sweedler_table(self):
        assert pointed_levels(BlockSystem(2, {(0, 1, 1): 2, (1, 1, 1): 2})) == (1, 1)

    def test_minimal_form(self):
        assert pointed_levels(minimal_form(3, 2)) == (2, 2)

    def test_cosemisimple_pointed(self):
        assert pointed_levels(BlockSystem(3, {(0, 1, 1): 3})) == (None, 0)


class TestTranspose:
    def test_symmetric_pair_unchanged_as_set(self):
        s = BlockSystem(3, {(1, 2, 1): 6, (1, 1, 2): 6})
        assert transpose(s) == s

    def test_index_swap(self):
        s = BlockSystem(1, {(1, 2, 3): 6})
        assert transpose(s) == BlockSystem(1, {(1, 3, 2): 6})

    def test_involution_preserves_everything(self):
        rng = random.Random(5)
        for _ in range(50):
            s = random_system(rng)
            t = transpose(s)
            assert transpose(t) == s
            assert total_dim(t) == total_dim(s)
            assert t.group_order == s.group_order


class TestModeFlags:
    def test_nsp_implies_non_cosemisimple(self):
        flags = ModeFlags(no_skew_primitives=True)
        assert flags.non_cosemisimple


class TestSerialization:
    def test_round_trip_minimal_form(self):
        s = minimal_form(3, 2)
        assert parse_block_system(serialize_block_system(s)) == s

    def test_round_trip_random(self):
        rng = random.Random(13)
        for _ in range(50):
            s = random_system(rng)
            assert parse_block_system(serialize_block_system(s)) == s

    def test_serialize_is_canonical(self):
        s = BlockSystem(2, {(2, 1, 1): 2, (0, 1, 1): 2, (1, 2, 1): 4})
        data = json.loads(serialize_block_system(s))
        levels = [(e["level"], e["d1"], e["d2"]) for e in data["blocks"]]
        assert levels == sorted(levels)

    def test_payload_is_what_the_bytes_decode_to(self):
        # certificates and analysis results embed the payload dict directly;
        # dumping it must give the serialized bytes, key order included
        rng = random.Random(17)
        for _ in range(50):
            s = random_system(rng)
            payload = block_system_payload(s)
            assert json.dumps(payload).encode("utf-8") == serialize_block_system(s)
            assert payload == json.loads(serialize_block_system(s))
            cert = Certificate("feasible", witness=s)
            assert cert.as_json_dict()["witness"] == payload

    def test_serialize_parse_of_parse_is_identity(self):
        # scrambled field order parses to the same system
        text = '{"blocks": [{"dim": 6, "d2": 1, "d1": 2, "level": 1}], "group_order": 3}'
        s = parse_block_system(text)
        assert s == BlockSystem(3, {(1, 2, 1): 6})
        again = parse_block_system(serialize_block_system(s))
        assert again == s

    def test_rejects_level0_off_diagonal(self):
        text = '{"group_order": 2, "blocks": [{"level": 0, "d1": 2, "d2": 1, "dim": 4}]}'
        with pytest.raises(BlockSystemParseError, match="level-0 block must be diagonal"):
            parse_block_system(text)

    def test_rejects_zero_dimension(self):
        text = '{"group_order": 2, "blocks": [{"level": 1, "d1": 1, "d2": 1, "dim": 0}]}'
        with pytest.raises(BlockSystemParseError, match="zero blocks must be omitted"):
            parse_block_system(text)

    def test_rejects_negative_dimension(self):
        text = '{"group_order": 2, "blocks": [{"level": 1, "d1": 1, "d2": 1, "dim": -4}]}'
        with pytest.raises(BlockSystemParseError, match="positive"):
            parse_block_system(text)

    def test_rejects_duplicate_indices(self):
        text = (
            '{"group_order": 2, "blocks": ['
            '{"level": 1, "d1": 1, "d2": 1, "dim": 2},'
            '{"level": 1, "d1": 1, "d2": 1, "dim": 4}]}'
        )
        with pytest.raises(BlockSystemParseError, match="duplicate"):
            parse_block_system(text)

    def test_rejects_unknown_fields(self):
        with pytest.raises(BlockSystemParseError, match="unknown"):
            parse_block_system('{"group_order": 2, "blocks": [], "extra": 1}')
        with pytest.raises(BlockSystemParseError, match="unknown"):
            parse_block_system(
                '{"group_order": 2, "blocks": [{"level": 0, "d1": 1, "d2": 1, "dim": 2, "x": 0}]}'
            )

    def test_error_names_offending_entry(self):
        text = (
            '{"group_order": 2, "blocks": ['
            '{"level": 1, "d1": 1, "d2": 1, "dim": 2},'
            '{"level": 0, "d1": 3, "d2": 1, "dim": 9}]}'
        )
        with pytest.raises(BlockSystemParseError,
                           match=r"blocks\[1\]: level-0 block must be diagonal, got \(0, 3, 1\)"):
            parse_block_system(text)

    def test_level_bound_admits_every_analyzed_or_default_solved_table(self):
        assert MAX_BLOCK_LEVEL >= MAX_ANALYZE_DIM
        assert MAX_BLOCK_LEVEL >= LEVEL_CAP

    def test_level_at_the_bound_parses(self):
        text = json.dumps({"group_order": 1, "blocks": [
            {"level": MAX_BLOCK_LEVEL, "d1": 1, "d2": 1, "dim": 1}]})
        assert [i.level for i in parse_block_system(text).blocks] == [MAX_BLOCK_LEVEL]

    def test_level_above_the_bound_is_refused(self):
        text = json.dumps({"group_order": 1, "blocks": [
            {"level": MAX_BLOCK_LEVEL + 1, "d1": 1, "d2": 1, "dim": 1}]})
        with pytest.raises(BlockSystemParseError,
                           match=rf"blocks\[0\].*MAX_BLOCK_LEVEL = {MAX_BLOCK_LEVEL}"):
            parse_block_system(text)

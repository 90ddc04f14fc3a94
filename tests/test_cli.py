import csv
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import blocksieve
from blocksieve.analyzer import MAX_ANALYZE_DIM
from blocksieve.blocks import MAX_BLOCK_LEVEL, serialize_block_system
from blocksieve.cli import NODE_CAP_ENV, main
from blocksieve.coalgebra import Coalgebra, serialize_coalgebra
from blocksieve.corpus import grouplike_coalgebra, sweedler_coalgebra
from blocksieve.solver import SearchCapExceeded, minimal_form


@pytest.fixture(autouse=True)
def _no_node_cap(monkeypatch):
    """Each test starts without a node cap from the caller's environment."""
    monkeypatch.delenv(NODE_CAP_ENV, raising=False)


def run_cli(args, env):
    with pytest.MonkeyPatch.context() as mp:
        for k, v in env.items():
            mp.setenv(k, v)
        return main(args)


def test_every_library_refusal_maps_to_exit_two():
    # main's single except catches (SystemExit2, SearchCapExceeded, ValueError)
    names = [getattr(blocksieve, name) for name in blocksieve.__all__]
    errors = [obj for obj in names if isinstance(obj, type) and issubclass(obj, BaseException)]
    assert len(errors) >= 8
    for cls in errors:
        assert issubclass(cls, (ValueError, SearchCapExceeded)), cls


class TestBound:
    def test_text_output(self, capsys):
        assert main(["bound", "--group-order", "3"]) == 0
        assert capsys.readouterr().out == "N_min = 42, d in {2,3}\n"

    def test_json(self, capsys):
        assert main(["bound", "--group-order", "2", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"N_min": 20, "d": [2]}


class TestSolve:
    def test_feasible_exit_zero(self, capsys):
        assert main(["solve", "--dim", "42", "--group-order", "3",
                     "--no-skew-primitives"]) == 0
        out = capsys.readouterr().out
        assert "feasible" in out

    def test_infeasible_json_exit_one(self, capsys):
        code = main(["solve", "--dim", "45", "--group-order", "3",
                     "--no-skew-primitives", "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "infeasible"
        assert "refutation" in payload and payload["refutation"]

    def test_auto_nsp_header(self, capsys):
        assert main(["solve", "--dim", "42", "--group-order", "3", "--auto-nsp"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# regime:")
        assert "derived: gcd" in out

    def test_node_cap_env_refusal(self, capsys):
        code = run_cli(
            ["solve", "--dim", "42", "--group-order", "3", "--no-skew-primitives"],
            env={"BLOCKSIEVE_NODE_CAP": "10"},
        )
        assert code == 2

    def test_nonpositive_node_cap_env_exit_two(self, capsys):
        # (7, 2) is answered by R1 without a search, (8, 2) is searched; the
        # surveys of 7 (prime) and 2 (no divisor 1 < r < 2) search nothing
        for cap in ("0", "-1"):
            for args in (["solve", "--dim", "7", "--group-order", "2"],
                         ["solve", "--dim", "8", "--group-order", "2"],
                         ["orders", "--dim", "7", "--no-skew-primitives"],
                         ["orders", "--dim", "2"]):
                code = run_cli(args, env={"BLOCKSIEVE_NODE_CAP": cap})
                assert code == 2
                assert f"node_cap must be positive, got {cap}" in capsys.readouterr().err

    def test_level_cap_exit_two(self, capsys):
        code = main(["solve", "--dim", "10000", "--group-order", "1"])
        assert code == 2
        assert "level cap" in capsys.readouterr().err

    def test_group_cap_exit_two(self, capsys):
        code = main(["solve", "--dim", "20000", "--group-order", "10000"])
        assert code == 2
        assert "group cap" in capsys.readouterr().err

    def test_bad_node_cap_env(self, capsys):
        code = run_cli(
            ["solve", "--dim", "42", "--group-order", "3"],
            env={"BLOCKSIEVE_NODE_CAP": "many"},
        )
        assert code == 2


class TestNodeCapEnv:
    def test_commands_without_search_ignore_it(self, tmp_path, capsys, corpus_dir):
        path = tmp_path / "ok.json"
        path.write_bytes(serialize_block_system(minimal_form(3, 2)))
        for args in (["bound", "--group-order", "3"],
                     ["check", str(path)],
                     ["analyze", str(corpus_dir / "sweedler4.json"), "--format", "json"]):
            code = main(args)
            out = capsys.readouterr().out
            assert run_cli(args, env={NODE_CAP_ENV: "many"}) == code
            assert capsys.readouterr().out == out


class TestRejectedOptions:
    """Options a command would ignore are not registered there: argparse exits 2."""

    def test_table_formats_only_on_scan_and_orders(self, capsys, corpus_dir):
        for args in (["bound", "--group-order", "3"],
                     ["solve", "--dim", "42", "--group-order", "3"],
                     ["check", str(corpus_dir / "sweedler4.json")],
                     ["analyze", str(corpus_dir / "sweedler4.json")]):
            for fmt in ("csv", "markdown"):
                assert main(args + ["--format", fmt]) == 2
                assert "invalid choice" in capsys.readouterr().err

    def test_auto_nsp_only_on_solve_scan_and_orders(self, tmp_path, capsys, corpus_dir):
        # gcd(1, 2/1) = 1 and a B(1,1,1) block: --no-skew-primitives fails it
        path = tmp_path / "coprime.json"
        path.write_text('{"group_order": 1, "blocks": ['
                        '{"level": 0, "d1": 1, "d2": 1, "dim": 1},'
                        '{"level": 1, "d1": 1, "d2": 1, "dim": 1}]}')
        assert main(["check", str(path), "--no-skew-primitives"]) == 1
        capsys.readouterr()
        for args in (["check", str(path)], ["analyze", str(corpus_dir / "sweedler4.json")],
                     ["bound", "--group-order", "3"]):
            assert main(args + ["--auto-nsp"]) == 2
            assert "unrecognized arguments: --auto-nsp" in capsys.readouterr().err

    def test_no_explicit_grid_options(self, capsys):
        # removed options: every search covers the grid that holds every
        # rule-satisfying system, and the surveys solve their points in turn
        solve_args = ["solve", "--dim", "42", "--group-order", "3"]
        for args, option in ((solve_args, "--max-level 3"), (solve_args, "--max-d 3"),
                             (["scan", "--group-order", "3", "--t-max", "2"], "--jobs 2"),
                             (["orders", "--dim", "12"], "--jobs 2")):
            assert main(args + option.split()) == 2
            assert f"unrecognized arguments: {option}" in capsys.readouterr().err


class TestScan:
    def test_csv_shape_and_exclusions(self, capsys):
        assert main(["scan", "--group-order", "2", "--t-max", "16",
                     "--no-skew-primitives", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,N,verdict,closing-rule summary"
        assert len(lines) == 17
        excluded = {
            int(line.split(",")[0])
            for line in lines[1:]
            if line.split(",")[2] == "infeasible"
        }
        assert excluded == {1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 15}

    def test_rejects_nonpositive_t_max(self, capsys):
        assert main(["scan", "--group-order", "3", "--t-max", "0"]) == 2
        assert "t_max must be positive" in capsys.readouterr().err

    def test_closing_summaries(self, capsys):
        # the paper's r = 3 exclusions: each infeasible row lists its closes
        # by reason, sorted, with their node counts
        assert main(["scan", "--group-order", "3", "--t-max", "20",
                     "--no-skew-primitives", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {row["t"]: row["summary"] for row in rows if row["verdict"] == "infeasible"} == {
            1: "RNC:1",
            2: "R7:1 RNC:1",
            3: "R7:1 RNC:1",
            4: "R11:1 R7:1 RNC:2 budget:10",
            5: "R11:4 R7:2 RNC:3 budget:12",
            6: "R11:4 R7:3 RNC:3 budget:11",
            7: "R11:5 R7:4 RNC:3 budget:15",
            8: "R11:9 R4:1 R7:4 RNC:4 budget:16",
            9: "R11:10 R4:1 R5:1 R7:6 RNC:4 budget:30",
            10: "R11:10 R4:2 R5:3 R7:7 RNC:4 budget:52",
            11: "R11:14 R4:4 R5:4 R7:8 RNC:4 budget:61",
            12: "R11:18 R4:6 R5:6 R7:9 RNC:4 budget:77",
            13: "R11:38 R4:11 R5:11 R7:11 RNC:5 budget:665",
            15: "R11:65 R4:30 R5:18 R7:14 RNC:5 budget:984 partition:2",
            16: "R11:80 R4:45 R5:25 R7:16 RNC:6 budget:1275 partition:2",
            19: "R11:179 R4:119 R5:56 R7:26 RNC:8 budget:2554 partition:6",
        }
        assert {row["summary"] for row in rows if row["verdict"] == "feasible"} == {"witness found"}

    def test_markdown(self, capsys):
        assert main(["scan", "--group-order", "2", "--t-max", "3",
                     "--no-skew-primitives", "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("| t | N | verdict |")


class TestOrders:
    def test_dimension_30(self, capsys):
        assert main(["orders", "--dim", "30", "--no-skew-primitives"]) == 0
        out = capsys.readouterr().out
        assert "no admissible group order" in out

    def test_json(self, capsys):
        assert main(["orders", "--dim", "30", "--no-skew-primitives",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["admissible_group_orders"] == []
        assert payload["surveyed"] == [2, 3, 5, 6, 10, 15]

    def test_rejects_nonpositive_dim(self, capsys):
        assert main(["orders", "--dim", "0"]) == 2
        assert "N must be positive" in capsys.readouterr().err

    def test_refused_past_the_level_cap_without_listing_divisors(self, capsys):
        # its least divisor 2 decides the refusal; listing all 289 takes a loop to 10^8
        start = time.process_time()
        assert main(["orders", "--dim", str(10**16)]) == 2
        assert time.process_time() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds the level cap" in captured.err

    # N = 45 has no admissible order under NSP, and N = 7 surveys none
    @pytest.mark.parametrize("dim, surveyed", [("45", ["3", "5", "9", "15"]), ("7", [])])
    def test_csv_holds_only_the_surveyed_rows(self, capsys, dim, surveyed):
        assert main(["orders", "--dim", dim, "--no-skew-primitives", "--format", "csv"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert rows == [{"r": r, "verdict": "infeasible"} for r in surveyed]

    @pytest.mark.parametrize("dim, surveyed", [("45", ["3", "5", "9", "15"]), ("7", [])])
    def test_markdown_holds_only_the_surveyed_rows(self, capsys, dim, surveyed):
        assert main(["orders", "--dim", dim, "--no-skew-primitives",
                     "--format", "markdown"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 + len(surveyed)
        assert all(line.startswith("|") and line.endswith("|") for line in lines)
        assert [line.split("|")[1].strip() for line in lines[2:]] == surveyed


class TestCheck:
    def test_passing_system(self, tmp_path, capsys):
        path = tmp_path / "ok.json"
        path.write_bytes(serialize_block_system(minimal_form(3, 2)))
        assert main(["check", str(path), "--no-skew-primitives"]) == 0
        assert "all activated rules pass" in capsys.readouterr().out

    def test_violations_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"group_order": 3, "blocks": ['
            '{"level": 0, "d1": 1, "d2": 1, "dim": 3},'
            '{"level": 1, "d1": 2, "d2": 1, "dim": 6}]}'
        )
        assert main(["check", str(path)]) == 1
        out = capsys.readouterr().out
        assert "R3 antipode symmetry" in out

    def test_rule_report_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"group_order": 3, "blocks": [{"level": 1, "d1": 2, "d2": 1, "dim": 6}]}'
        )
        assert main(["check", str(path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert all({"rule", "indices", "message"} <= set(e) for e in payload)

    def test_malformed_input_exit_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"group_order": 2, "blocks": [{"level": 0, "d1": 2, "d2": 1, "dim": 4}]}')
        assert main(["check", str(path)]) == 2

    def test_missing_file_exit_two(self):
        assert main(["check", "/nonexistent/x.json"]) == 2

    def test_level_at_the_bound_is_checked(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({"group_order": 1, "blocks": [
            {"level": MAX_BLOCK_LEVEL, "d1": 1, "d2": 1, "dim": 1}]}))
        assert main(["check", str(path)]) == 1
        assert "block system: group order 1" in capsys.readouterr().out

    def test_level_above_the_bound_exit_two(self, tmp_path, capsys):
        path = tmp_path / "deeper.json"
        path.write_text(json.dumps({"group_order": 1, "blocks": [
            {"level": MAX_BLOCK_LEVEL + 1, "d1": 1, "d2": 1, "dim": 1}]}))
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # the entry is refused where the table is built, before rules.check sees it
        assert captured.err == (
            f"error: blocks[0]: block level must be in 0..MAX_BLOCK_LEVEL = {MAX_BLOCK_LEVEL}, "
            f"got {MAX_BLOCK_LEVEL + 1}\n")


class TestAnalyze:
    def test_sweedler_corpus_file(self, corpus_dir, capsys):
        assert main(["analyze", str(corpus_dir / "sweedler4.json")]) == 0
        out = capsys.readouterr().out
        assert "filtration dims: 2 <= 4" in out
        assert "passes all necessary conditions" in out

    def test_sweedler_nsp_exit_one(self, corpus_dir, capsys):
        code = main(["analyze", str(corpus_dir / "sweedler4.json"),
                     "--no-skew-primitives"])
        assert code == 1
        assert "R7" in capsys.readouterr().out

    def test_json_output(self, corpus_dir, capsys):
        assert main(["analyze", str(corpus_dir / "s3_dual.json"),
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["filtration_dims"] == [6]
        assert payload["block_system"]["group_order"] == 2

    def test_usage_error(self, capsys):
        assert main(["analyze"]) == 2

    def test_above_size_bound_exit_two(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_bytes(serialize_coalgebra(grouplike_coalgebra(MAX_ANALYZE_DIM + 1)))
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"above the analyzer's limit of {MAX_ANALYZE_DIM}" in captured.err

    def test_non_coassociative_file_exit_two(self, tmp_path, capsys):
        # Delta x = x (x) g + 1 (x) x + x (x) x: the counit law holds, but
        # (Delta (x) id) Delta x has x (x) g (x) x where the other side has
        # x (x) 1 (x) x
        one = Fraction(1)
        delta = ((0, 0, 0, one), (1, 1, 1, one), (2, 2, 1, one), (2, 0, 2, one), (2, 2, 2, one))
        path = tmp_path / "noncoassociative.json"
        path.write_bytes(serialize_coalgebra(
            Coalgebra(3, ("1", "g", "x"), delta, (one, one, Fraction(0)))
        ))
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: coassociativity fails at basis index 2 (x)\n"

    def test_broken_counit_file_exit_two(self, tmp_path, capsys):
        c = sweedler_coalgebra()
        counit = c.counit[:3] + (Fraction(1, 3),)
        path = tmp_path / "broken_counit.json"
        path.write_bytes(serialize_coalgebra(Coalgebra(c.dim, c.basis, c.delta, counit)))
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: counit law fails at basis index 3 (gx)\n"


class TestModuleEntryPoint:
    def test_python_m_blocksieve_matches_main(self, corpus_dir, capsys):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        for args in (["analyze", str(corpus_dir / "sweedler4.json")],
                     ["analyze", str(corpus_dir / "sweedler4.json"), "--no-skew-primitives"]):
            proc = subprocess.run([sys.executable, "-m", "blocksieve", *args],
                                  capture_output=True, text=True, env=env, check=False,
                                  timeout=120)
            code = main(args)
            assert (proc.stdout, proc.returncode) == (capsys.readouterr().out, code)


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, capsys):
        outputs = []
        for _ in range(2):
            assert main(["scan", "--group-order", "2", "--t-max", "10",
                         "--no-skew-primitives", "--format", "json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

import json
import os

from blocksieve.blocks import serialize_block_system
from blocksieve.cli import main
from blocksieve.solver import minimal_form


def run_cli(args, monkeypatch=None, env=None, capsys=None):
    if env:
        for k, v in env.items():
            os.environ[k] = v
    try:
        code = main(args)
    finally:
        if env:
            for k in env:
                os.environ.pop(k, None)
    return code


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

    def test_bounds_beyond_recursion_limit_exit_two(self, capsys):
        code = main(["solve", "--dim", "3000", "--group-order", "1",
                     "--max-level", "2000", "--max-d", "1"])
        assert code == 2
        assert "recursion limit" in capsys.readouterr().err

    def test_max_d_beyond_group_cap_exit_two(self, capsys):
        code = main(["solve", "--dim", "40", "--group-order", "4",
                     "--max-level", "2", "--max-d", "600"])
        assert code == 2
        assert "group cap" in capsys.readouterr().err

    def test_bad_node_cap_env(self, capsys):
        code = run_cli(
            ["solve", "--dim", "42", "--group-order", "3"],
            env={"BLOCKSIEVE_NODE_CAP": "many"},
        )
        assert code == 2


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

    def test_jobs_byte_identical(self, capsys):
        assert main(["scan", "--group-order", "3", "--t-max", "14",
                     "--no-skew-primitives", "--format", "csv"]) == 0
        serial = capsys.readouterr().out
        assert main(["scan", "--group-order", "3", "--t-max", "14",
                     "--no-skew-primitives", "--format", "csv", "--jobs", "3"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_parallel_rejects_nonpositive_t_max(self, capsys):
        assert main(["scan", "--group-order", "3", "--t-max", "0", "--jobs", "2"]) == 2
        assert "t_max must be positive" in capsys.readouterr().err

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

    def test_jobs_byte_identical(self, capsys):
        assert main(["orders", "--dim", "42", "--no-skew-primitives"]) == 0
        serial = capsys.readouterr().out
        assert main(["orders", "--dim", "42", "--no-skew-primitives", "--jobs", "3"]) == 0
        assert capsys.readouterr().out == serial

    def test_parallel_rejects_nonpositive_dim(self, capsys):
        assert main(["orders", "--dim", "0", "--jobs", "2"]) == 2
        assert "N must be positive" in capsys.readouterr().err


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


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, capsys):
        outputs = []
        for _ in range(2):
            assert main(["scan", "--group-order", "2", "--t-max", "10",
                         "--no-skew-primitives", "--format", "json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

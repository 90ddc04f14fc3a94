"""What each entry point loads: the core eagerly, the rest on first use.

`import blocksieve` loads `blocks`, `rules` and `solver` only, and neither
`dataclasses` nor `inspect`; the analyzer stack (`coalgebra`, `linalg`,
`analyzer`, and with them `fractions` and `dataclasses`) and the oracle load
when one of their names is first used.  Each check runs in a fresh
interpreter, since the test session itself has long loaded everything, on
the copy of blocksieve this session imported: the checkout's src, or an
installed package when the file is run against one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blocksieve
from blocksieve.blocks import serialize_block_system
from blocksieve.solver import minimal_form

ROOT = Path(__file__).resolve().parent.parent
PATH_ENTRY = str(Path(blocksieve.__file__).resolve().parent.parent)
CORE = ["blocksieve", "blocksieve.blocks", "blocksieve.rules", "blocksieve.solver"]

# The blocksieve modules loaded, and which of the stdlib modules that only
# the analyzer stack needs are, as a Python expression.
LOADED = ("{'modules': sorted(m for m in sys.modules if m.split('.')[0] == 'blocksieve'), "
          "'stdlib': sorted(m for m in ('dataclasses', 'fractions', 'inspect') "
          "if m in sys.modules)}")


def fresh(code: str) -> dict:
    """Run code in a new interpreter that finds this session's blocksieve; its last line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PATH_ENTRY, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def after_cli(args: list[str]) -> dict:
    """The command's exit code and what it loaded, its output discarded."""
    return fresh(
        "import contextlib, io, json, sys\n"
        "from blocksieve import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({args!r})\n"
        f"print(json.dumps({{'exit': code, **{LOADED}}}))"
    )


def test_import_loads_the_core_only():
    loaded = fresh(f"import json, sys, blocksieve; print(json.dumps({LOADED}))")
    assert loaded == {"modules": CORE, "stdlib": []}


def test_solve_and_check_load_nothing_beyond_the_core(tmp_path):
    expected = {"modules": sorted(CORE + ["blocksieve.cli"]), "stdlib": []}
    assert after_cli(["solve", "--dim", "45", "--group-order", "3",
                      "--no-skew-primitives"]) == {"exit": 1, **expected}
    path = tmp_path / "minimal_form.json"
    path.write_bytes(serialize_block_system(minimal_form(3, 2)))
    assert after_cli(["check", str(path), "--no-skew-primitives"]) == {"exit": 0, **expected}


def test_analyze_never_loads_the_oracle():
    loaded = after_cli(["analyze", str(ROOT / "corpus" / "sweedler4.json")])
    assert loaded["exit"] == 0
    assert "blocksieve.analyzer" in loaded["modules"]
    assert "blocksieve.oracle" not in loaded["modules"]
    assert {"dataclasses", "fractions"} <= set(loaded["stdlib"])


def test_every_public_name_resolves_and_is_listed():
    out = fresh(
        "import json, blocksieve\n"
        "star = {}\n"
        "exec('from blocksieve import *', star)\n"
        "names = blocksieve.__all__\n"
        "print(json.dumps({'missing': [n for n in names if getattr(blocksieve, n, None) is None],\n"
        "                  'unlisted': sorted(set(names) - set(dir(blocksieve))),\n"
        "                  'unbound': [n for n in names if n not in star]}))"
    )
    assert out == {"missing": [], "unlisted": [], "unbound": []}
    for name in ("coalgebra", "linalg", "analyzer", "oracle"):
        assert name in dir(blocksieve)
        assert getattr(blocksieve, name).__name__ == f"blocksieve.{name}"


def test_names_resolve_to_their_defining_modules():
    from blocksieve import analyzer, coalgebra, oracle

    assert blocksieve.analyze is analyzer.analyze
    assert blocksieve.parse_coalgebra is coalgebra.parse_coalgebra
    assert blocksieve.oracle_solve is oracle.oracle_solve


def test_unknown_attribute_is_named_in_the_error():
    out = fresh(
        "import json, blocksieve\n"
        "try:\n"
        "    blocksieve.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps(str(exc)))"
    )
    assert "no_such_name" in out
    with pytest.raises(ImportError, match="no_such_name"):
        from blocksieve import no_such_name  # noqa: F401

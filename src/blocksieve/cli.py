"""Command-line front end.

Subcommands: bound, check, solve, scan, orders, analyze.  Exit codes follow
one contract everywhere: 0 for feasible / all rules pass, 1 for infeasible /
violations found, 2 for usage or input errors (including search-cap refusals).
Only solve, scan and orders search, so only they read BLOCKSIEVE_NODE_CAP.
Output is byte-identical across runs for the same inputs, format, and any
parallelism degree.  Only analyze reads coalgebras, so only it imports the
analyzer stack; every other command loads the package's core alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .blocks import ModeFlags, parse_block_system, total_dim
from .rules import check, explain
from .solver import (
    FeasibilityProblem,
    GridBounds,
    SearchCapExceeded,
    admissible_group_orders,
    lower_bound,
    scan,
    solve,
)

NODE_CAP_ENV = "BLOCKSIEVE_NODE_CAP"
FORMATS = ("text", "json", "csv", "markdown")


def _flags_from(ns) -> ModeFlags:
    return ModeFlags(
        non_cosemisimple=getattr(ns, "non_cosemisimple", False),
        no_skew_primitives=getattr(ns, "no_skew_primitives", False),
        auto_nsp=getattr(ns, "auto_nsp", False),
    )


def _bounds_from(ns) -> GridBounds | None:
    if ns.max_level is None and ns.max_d is None:
        return None
    if ns.max_level is None or ns.max_d is None:
        raise SystemExit2("--max-level and --max-d must be given together")
    return GridBounds(ns.max_level, ns.max_d)


def _node_cap() -> int | None:
    """BLOCKSIEVE_NODE_CAP as an integer; read only by the commands that search."""
    raw = os.environ.get(NODE_CAP_ENV)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise SystemExit2(f"{NODE_CAP_ENV} must be an integer, got {raw!r}") from exc


class SystemExit2(Exception):
    """Usage or input error; maps to exit code 2."""


def _regime_header(cert_stats: dict) -> str:
    regime = cert_stats.get("regime", {})
    parts = []
    if regime.get("no_skew_primitives"):
        parts.append("no nontrivial skew-primitives")
        if regime.get("auto_nsp_applied"):
            parts.append("(derived: gcd(r, N/r) = 1)")
        else:
            parts.append("(requested; conclusion conditional on that hypothesis)")
    elif regime.get("non_cosemisimple"):
        parts.append("non-cosemisimple, skew-primitives allowed")
    else:
        parts.append("all coalgebras allowed")
    return "# regime: " + " ".join(parts)


def _witness_lines(witness) -> list[str]:
    lines = ["  level d1 d2    dim"]
    for (n, a, b, v) in witness.entries():
        lines.append(f"  {n:>5} {a:>2} {b:>2} {v:>6}")
    return lines


def _cmd_bound(ns, out) -> int:
    n_min, ds = lower_bound(ns.group_order)
    if ns.fmt == "json":
        out.write(json.dumps({"N_min": n_min, "d": sorted(ds)}, sort_keys=True) + "\n")
    else:
        out.write(f"N_min = {n_min}, d in {{{','.join(str(d) for d in sorted(ds))}}}\n")
    return 0


def _cmd_solve(ns, out) -> int:
    node_cap = _node_cap()
    problem = FeasibilityProblem(ns.dim, ns.group_order, _flags_from(ns), _bounds_from(ns))
    cert = solve(problem, node_cap=node_cap)
    if ns.fmt == "json":
        out.write(json.dumps(cert.as_json_dict(), sort_keys=True) + "\n")
    else:
        out.write(_regime_header(cert.stats) + "\n")
        out.write(f"dim {ns.dim}, group order {ns.group_order}: {cert.verdict}\n")
        if cert.witness is not None:
            out.write("\n".join(_witness_lines(cert.witness)) + "\n")
        elif cert.refutation_summary:
            for line in cert.refutation_summary:
                out.write(f"  {line}\n")
    return 0 if cert.feasible else 1


def _closing_summary(cert) -> str:
    if cert.feasible:
        return "witness found"
    closed = cert.stats.get("closed", {})
    return " ".join(f"{k}:{v}" for k, v in sorted(closed.items())) or "empty search space"


def _cmd_scan(ns, out) -> int:
    node_cap = _node_cap()
    r = ns.group_order
    rows = scan(r, ns.t_max, _flags_from(ns), node_cap=node_cap, jobs=ns.jobs)
    if ns.fmt == "json":
        payload = [
            {"t": t, "N": t * r, "verdict": verdict, "summary": _closing_summary(cert)}
            for (t, verdict, cert) in rows
        ]
        out.write(json.dumps(payload, sort_keys=True) + "\n")
        return 0
    header = ("t", "N", "verdict", "closing-rule summary")
    table = [
        (str(t), str(t * r), verdict, _closing_summary(cert))
        for (t, verdict, cert) in rows
    ]
    _write_table(out, header, table, ns.fmt)
    return 0


def _cmd_orders(ns, out) -> int:
    node_cap = _node_cap()
    N = ns.dim
    divisors = [r for r in range(2, N) if N % r == 0]
    feasible = admissible_group_orders(N, _flags_from(ns), node_cap=node_cap, jobs=ns.jobs)
    if ns.fmt == "json":
        out.write(
            json.dumps(
                {"dim": N, "admissible_group_orders": sorted(feasible),
                 "surveyed": divisors},
                sort_keys=True,
            )
            + "\n"
        )
        return 0
    header = ("r", "verdict")
    table = [
        (str(r), "feasible" if r in feasible else "infeasible") for r in divisors
    ]
    _write_table(out, header, table, ns.fmt)
    if not feasible:
        out.write(f"no admissible group order 1 < r < {N} divides {N}\n")
    return 0


def _cmd_check(ns, out) -> int:
    system = parse_block_system(_read(ns.input))
    violations = check(system, _flags_from(ns))
    if ns.fmt == "json":
        payload = [v.as_json_dict() for v in violations]
        out.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        out.write(
            f"block system: group order {system.group_order}, "
            f"total dim {total_dim(system)}\n"
        )
        if violations:
            for v in violations:
                out.write(explain(v) + "\n")
        else:
            out.write("all activated rules pass\n")
    return 1 if violations else 0


def _cmd_analyze(ns, out) -> int:
    from .analyzer import analyze
    from .coalgebra import parse_coalgebra

    coalgebra = parse_coalgebra(_read(ns.input))
    result = analyze(coalgebra, _flags_from(ns))
    if ns.fmt == "json":
        out.write(json.dumps(result.as_json_dict(), sort_keys=True) + "\n")
        return 1 if result.rule_report else 0
    out.write(f"coalgebra of dimension {coalgebra.dim}\n")
    out.write(
        "components: "
        + ", ".join(f"{s.label} (d={s.d})" for s in result.components)
        + f"; group order {result.block_system.group_order}\n"
    )
    out.write("filtration dims: " + " <= ".join(str(d) for d in result.filtration.dims) + "\n")
    out.write("blocks:\n")
    out.write("\n".join(_witness_lines(result.block_system)) + "\n")
    if result.q_table:
        out.write("isotypic table:\n")
        for (n, tau, mu), v in sorted(result.q_table.items()):
            out.write(f"  level {n}: ({tau}, {mu}) -> {v}\n")
    if result.rule_report:
        for v in result.rule_report:
            out.write(explain(v) + "\n")
    out.write(result.verdict + "\n")
    return 1 if result.rule_report else 0


def _write_table(out, header, rows, fmt: str):
    if fmt == "csv":
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(str(x).replace(",", ";") for x in row) + "\n")
    elif fmt == "markdown":
        out.write("| " + " | ".join(header) + " |\n")
        out.write("|" + "|".join("---" for _ in header) + "|\n")
        for row in rows:
            out.write("| " + " | ".join(str(x) for x in row) + " |\n")
    else:
        widths = [
            max(len(str(header[i])), *(len(str(r[i])) for r in rows)) if rows else len(header[i])
            for i in range(len(header))
        ]
        out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
        for row in rows:
            out.write("  ".join(str(x).ljust(w) for x, w in zip(row, widths)).rstrip() + "\n")


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise SystemExit2(f"cannot read {path}: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blocksieve",
        description="Admissibility sieve for coalgebra block systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each command registers only the options it reads: --auto-nsp needs an
    # (N, r) query, and csv/markdown exist only for the tabular commands
    def add_flags(p, modes=True, auto_nsp=True, tables=False):
        if modes:
            p.add_argument("--non-cosemisimple", action="store_true",
                           help="require a block above level 0")
            p.add_argument("--no-skew-primitives", action="store_true",
                           help="activate the skew-primitive-free rules (implies --non-cosemisimple)")
        if modes and auto_nsp:
            p.add_argument("--auto-nsp", action="store_true",
                           help="derive --no-skew-primitives from gcd(r, N/r) = 1")
        p.add_argument("--format", choices=FORMATS if tables else FORMATS[:2],
                       default="text", dest="fmt")

    p = sub.add_parser("bound", help="minimum dimension over all block shapes for a group order")
    p.add_argument("--group-order", type=int, required=True)
    add_flags(p, modes=False)

    p = sub.add_parser("solve", help="decide feasibility of one (dim, group order) pair")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--group-order", type=int, required=True)
    p.add_argument("--max-level", type=int)
    p.add_argument("--max-d", type=int)
    add_flags(p)

    p = sub.add_parser("scan", help="feasibility of N = t*r for t = 1..t_max")
    p.add_argument("--group-order", type=int, required=True)
    p.add_argument("--t-max", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    add_flags(p, tables=True)

    p = sub.add_parser("orders", help="survey group orders 1 < r < N dividing N")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    add_flags(p, tables=True)

    p = sub.add_parser("check", help="run the rule engine on a block-system JSON file")
    p.add_argument("input", help="path to block-system JSON")
    add_flags(p, auto_nsp=False)

    p = sub.add_parser("analyze", help="full coradical analysis of a coalgebra JSON file")
    p.add_argument("input", help="path to coalgebra JSON")
    add_flags(p, auto_nsp=False)

    return parser


_DISPATCH = {
    "bound": _cmd_bound,
    "solve": _cmd_solve,
    "scan": _cmd_scan,
    "orders": _cmd_orders,
    "check": _cmd_check,
    "analyze": _cmd_analyze,
}


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # every library refusal subclasses ValueError or SearchCapExceeded
    try:
        return _DISPATCH[ns.command](ns, sys.stdout)
    except (SystemExit2, SearchCapExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Request sets for the four workloads, their fingerprints and correctness checks.

Inputs are built here with the standard library only (coalgebras are read from
the shipped corpus files and combined in this module), so the bytes a request
carries do not depend on the code being measured.  A request is a JSON-ready
dict: solver requests carry (N, r, regime); analyzer requests carry the
coalgebra file bytes as text.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = ("scan-nsp", "grid-ncss", "analyze-sparse", "analyze-dense")

CORPUS_FILES = (
    "grouplike_c3.json",
    "grouplike_c4.json",
    "matrix2.json",
    "s3_dual.json",
    "sweedler4.json",
    "sweedler4_tensor_square.json",
)

# Tensor factors: name -> (corpus file, or None for a built grouplike coalgebra;
# grouplike count; dimension).
FACTORS = {
    "g1": (None, 1, 1),
    "g2": (None, 2, 2),
    "g3": ("grouplike_c3.json", 3, 3),
    "g4": ("grouplike_c4.json", 4, 4),
    "sw": ("sweedler4.json", 2, 4),
    "m2": ("matrix2.json", 0, 4),
    "s3": ("s3_dual.json", 2, 6),
}
MAX_TENSOR_DIM = 24

# Random bases per corpus coalgebra in analyze-dense, 100 in all.  The
# tensor square carries most of the time; the counts put the median request
# in the middle of the grouplike_c4 group rather than at the edge between two
# groups, where the seed would move it.
DENSE_BASES = {
    "grouplike_c3.json": 12,
    "grouplike_c4.json": 28,
    "matrix2.json": 12,
    "s3_dual.json": 16,
    "sweedler4.json": 12,
    "sweedler4_tensor_square.json": 20,
}



def _paper_verdicts() -> dict[tuple[int, int], str]:
    """(r, t) -> NSP verdict at N = t*r, from the paper's exclusion tables."""
    pinned = {(7, 21): "feasible"}
    tables = {
        2: (16, {1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 15}),
        3: (20, set(range(1, 14)) | {15, 16, 19}),
        5: (21, set(range(1, 14)) | {15, 16, 17, 20, 21}),
    }
    for r, (t_max, excluded) in tables.items():
        for t in range(1, t_max + 1):
            pinned[(r, t)] = "infeasible" if t in excluded else "feasible"
    return pinned


PAPER_VERDICTS = _paper_verdicts()


# -- coalgebras as plain data ------------------------------------------------
#
# A coalgebra is (basis labels, {(i, j, k): coefficient}, counit list), with
# Fraction coefficients, mirroring the documented JSON file format.


def _frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def read_coalgebra(text: str):
    obj = json.loads(text)
    delta = {(i, j, k): Fraction(c) for (i, j, k, c) in obj["delta"]}
    return list(obj["basis"]), delta, [Fraction(x) for x in obj["counit"]]


def grouplike(n: int):
    return [f"g{i}" for i in range(n)], {(i, i, i): Fraction(1) for i in range(n)}, [Fraction(1)] * n


def dumps_coalgebra(c) -> str:
    basis, delta, counit = c
    return json.dumps({
        "dim": len(basis),
        "basis": basis,
        "delta": [[i, j, k, _frac_str(v)] for (i, j, k), v in sorted(delta.items())],
        "counit": [_frac_str(x) for x in counit],
        "field": "Q",
    })


def tensor(c1, c2):
    b1, d1, e1 = c1
    b2, d2, e2 = c2
    n2 = len(b2)
    delta: dict = {}
    for (i1, j1, k1), a in d1.items():
        for (i2, j2, k2), b in d2.items():
            key = (i1 * n2 + i2, j1 * n2 + j2, k1 * n2 + k2)
            delta[key] = delta.get(key, 0) + a * b
    basis = [f"{x}⊗{y}" for x in b1 for y in b2]
    return basis, {k: v for k, v in delta.items() if v}, [x * y for x in e1 for y in e2]


def random_shears(rng: random.Random, n: int) -> list[list[Fraction]]:
    """Invertible rational matrix: two rounds of shears on disjoint random pairs.

    Each round pairs the coordinates at random and adds a multiple p/q
    (0 < |p| <= 2, q <= 2) of one to the other, so every coordinate is mixed
    about twice.  Compared with a chain of shears at random positions this
    keeps the cost per basis within a narrower band, which keeps the
    workload's total from depending much on the seed.
    """
    P = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(2):
        perm = list(range(n))
        rng.shuffle(perm)
        for i, j in zip(perm[0::2], perm[1::2]):
            c = Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 2))
            P[i] = [a + c * b for a, b in zip(P[i], P[j])]
    return P


def _invert(P):
    n = len(P)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(P)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def change_basis(c, P):
    """The coalgebra in the basis f_i = sum_j P[i][j] e_j."""
    basis, delta, counit = c
    n = len(basis)
    inv = _invert(P)
    by_source: dict = {}
    for (i, j, k), v in delta.items():
        by_source.setdefault(i, []).append((j, k, v))
    out: dict = {}
    for i in range(n):
        for j in range(n):
            if not P[i][j]:
                continue
            for (k, l, coeff) in by_source.get(j, ()):
                w = P[i][j] * coeff
                for a in range(n):
                    if not inv[k][a]:
                        continue
                    wa = w * inv[k][a]
                    for b in range(n):
                        if inv[l][b]:
                            key = (i, a, b)
                            out[key] = out.get(key, 0) + wa * inv[l][b]
    new_counit = [sum((P[i][j] * counit[j] for j in range(n)), Fraction(0)) for i in range(n)]
    return [f"f{i}" for i in range(n)], {k: v for k, v in out.items() if v}, new_counit


# -- request sets -------------------------------------------------------------


def _corpus_text(root: Path, name: str) -> str:
    return (root / "corpus" / name).read_text(encoding="utf-8")


def tensor_combos() -> list[tuple[str, ...]]:
    """Factor multisets of 2-3 factors with dimension <= 24; g1 only in pairs."""
    out = [("g1", f) for f in FACTORS]
    for k in (2, 3):
        for combo in itertools.combinations_with_replacement([f for f in FACTORS if f != "g1"], k):
            if math.prod(FACTORS[f][2] for f in combo) <= MAX_TENSOR_DIM:
                out.append(combo)
    return out


def _factor(root: Path, name: str):
    path, count, _dim = FACTORS[name]
    return grouplike(count) if path is None else read_coalgebra(_corpus_text(root, path))


def _solver_requests(workload: str) -> list[dict]:
    if workload == "scan-nsp":
        points = [(t * r, r) for r in (2, 3, 5, 7) for t in range(1, 41)]
        regime = "nsp"
    else:
        points = [(n, r) for r in range(1, 7) for n in range(r, 61, r) if not (r == 1 and n > 46)]
        regime = "ncss"
    return [{"id": f"{regime}:{n},{r}", "kind": "solve", "N": n, "r": r, "regime": regime}
            for (n, r) in points]


def _sparse_requests(root: Path) -> list[dict]:
    reqs = [{"id": name, "kind": "analyze", "source": name, "text": _corpus_text(root, name)}
            for name in CORPUS_FILES]
    for combo in tensor_combos():
        c = _factor(root, combo[0])
        for f in combo[1:]:
            c = tensor(c, _factor(root, f))
        name = "*".join(combo)
        reqs.append({"id": name, "kind": "analyze", "source": name, "text": dumps_coalgebra(c)})
    return reqs


def _dense_requests(root: Path, rng: random.Random) -> list[dict]:
    reqs = []
    for name in CORPUS_FILES:
        c = read_coalgebra(_corpus_text(root, name))
        for b in range(DENSE_BASES[name]):
            moved = change_basis(c, random_shears(rng, len(c[0])))
            reqs.append({"id": f"{name}#{b}", "kind": "analyze", "source": name,
                         "text": dumps_coalgebra(moved)})
    return reqs


def generate(workload: str, seed: int, root: Path) -> list[dict]:
    """The workload's requests in the order the seed fixes."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("scan-nsp", "grid-ncss"):
        reqs = _solver_requests(workload)
    elif workload == "analyze-sparse":
        reqs = _sparse_requests(root)
    elif workload == "analyze-dense":
        reqs = _dense_requests(root, rng)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng.shuffle(reqs)
    return reqs


# -- fingerprints -------------------------------------------------------------


def digest(reqs: list[dict], ordered: bool = True) -> str:
    lines = [json.dumps(r, sort_keys=True) for r in reqs]
    if not ordered:
        lines.sort()
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def fingerprint_problem(workload: str, seed: int, reqs: list[dict]) -> str | None:
    """Why the inputs differ from the recorded ones, or None when they match.

    fingerprints.json holds the order-free digest of every seed-independent
    request set and the ordered digest of a range of seeds per workload.
    """
    recorded = json.loads((HERE / "fingerprints.json").read_text())[workload]
    if "set" in recorded and digest(reqs, ordered=False) != recorded["set"]:
        return "request set differs from the recorded one"
    want = recorded["seeds"].get(str(seed))
    if want is not None and digest(reqs) != want:
        return f"inputs for seed {seed} differ from the recorded ones"
    return None


# -- correctness --------------------------------------------------------------


def canonical_witness(w) -> list | None:
    if w is None:
        return None
    return [w["group_order"], sorted([b["level"], b["d1"], b["d2"], b["dim"]] for b in w["blocks"])]


def canonical_analysis(res: dict) -> dict:
    bs = res["block_system"]
    return {
        "r": bs["group_order"],
        "blocks": sorted([b["level"], b["d1"], b["d2"], b["dim"]] for b in bs["blocks"]),
        "filtration_dims": list(res["filtration_dims"]),
        "label_free": res["label_free"],
    }


def _total(r: int, blocks: list) -> int:
    total = sum(b[3] for b in blocks)
    if r and not any(b[:3] == [0, 1, 1] for b in blocks):
        total += r
    return total


def _grouplike_count(source: str) -> int | None:
    """Product of the factors' grouplike counts for a tensor-product input."""
    if "*" not in source:
        return None
    return math.prod(FACTORS[f][1] for f in source.split("*"))


class Checker:
    """Untimed correctness gate: one verdict per request output.

    Solver outputs must match the reference verdict and lexicographically
    least witness (the oracle for grid-ncss, the recorded table for scan-nsp,
    which is itself pinned to the paper's exclusion sets); analyzer outputs
    must match the standard-basis source in block system, filtration
    dimensions and label-free isotypic table.
    """

    def __init__(self, workload: str, oracle: dict | None = None):
        expected = json.loads((HERE / "expected.json").read_text())
        if workload == "grid-ncss":
            self.reference = oracle
        elif workload == "scan-nsp":
            self.reference = expected["scan-nsp"]
        else:
            self.reference = expected["analyze"]

    def problem(self, req: dict, out: dict) -> str | None:
        """Why the output is wrong or refused, or None when it is correct."""
        if "error" in out:
            return f"raised {out['error']}"
        if req["kind"] == "solve":
            want = self.reference[req["id"]]
            got = {"verdict": out["verdict"], "witness": canonical_witness(out["witness"])}
            if got != want:
                return f"expected {want}, got {got}"
            return None
        got = canonical_analysis(out)
        want = self.reference[req["source"]]
        if got != want:
            return f"expected {want}, got {got}"
        dim = json.loads(req["text"])["dim"]
        if _total(got["r"], got["blocks"]) != dim:
            return "block dimensions do not total dim"
        r = _grouplike_count(req["source"])
        if r is not None and got["r"] != r:
            return f"group order {got['r']}, expected the factors' product {r}"
        return None


def paper_problems(reqs: list[dict], outputs: list[dict]) -> dict[int, str]:
    """scan-nsp outputs against the paper's exclusion sets and the rule check.

    Returns {request index: problem}.  Excluded t must come back infeasible,
    the others feasible, and every witness must pass the NSP rule check and
    total N.
    """
    import blocksieve as bs

    out = {}
    for i, (req, res) in enumerate(zip(reqs, outputs)):
        if "error" in res:
            continue
        N, r = req["N"], req["r"]
        want = PAPER_VERDICTS.get((r, N // r), res["verdict"])
        if res["verdict"] != want:
            out[i] = f"the paper has {want} at t={N // r}, r={r}"
            continue
        if res["witness"] is not None:
            system = bs.parse_block_system(json.dumps(res["witness"]))
            if bs.total_dim(system) != N or bs.check(system, bs.NSP):
                out[i] = "witness fails the NSP rule check or does not total N"
    return out

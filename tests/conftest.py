import copy
import math
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest

from blocksieve.blocks import BlockIndex, BlockSystem
from blocksieve.linalg import echelon, integral, primitive

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture
def corpus_dir() -> Path:
    return CORPUS_DIR


def random_system(rng: random.Random, max_level=4, max_d=3, symmetric=False) -> BlockSystem:
    """A structurally valid (not necessarily rule-passing) block system."""
    r = rng.randint(1, 5)
    blocks = {}
    if rng.random() < 0.9:
        blocks[BlockIndex(0, 1, 1)] = r
    for _ in range(rng.randint(0, 8)):
        n = rng.randint(0, max_level)
        d1 = rng.randint(1, max_d)
        d2 = d1 if n == 0 else rng.randint(1, max_d)
        v = rng.randint(1, 30)
        blocks[BlockIndex(n, d1, d2)] = v
        if symmetric and n >= 1:
            blocks[BlockIndex(n, d2, d1)] = v
    return BlockSystem(r, blocks)


def assert_value_type(value, fields: dict, repr_text: str):
    """The behaviour shared by the core's immutable value types.

    fields maps each field name, in constructor order, to its expected value.
    The value equals a copy built from its fields, not the tuple of them;
    its repr is repr_text; assigning or deleting any field raises
    AttributeError and leaves the field as it was; pickle and both copies
    give an equal value of the same class.
    """
    for name, expected in fields.items():
        assert getattr(value, name) == expected
    assert value == type(value)(*fields.values())
    assert value != tuple(fields.values())
    assert not value == tuple(fields.values())
    assert repr(value) == repr_text
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) == fields[name]
    with pytest.raises(AttributeError):
        value.no_such_field = 1
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value
        assert repr(twin) == repr_text


def grid_points(rng: random.Random, count: int, max_t: int) -> list[tuple[int, int]]:
    """(N, r) pairs with r composite, a prime power or square-full, and r <= N < (max_t + 1) * r.

    N/r is small (1 to 3) in half the pairs, where r's square part decides
    max_d, and up to max_t in the rest; N is a multiple of r in half of them.
    """
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]
    points = []
    while len(points) < count:
        kind = rng.choice(("composite", "prime power", "square-full"))
        if kind == "prime power":
            p = rng.choice(primes)
            r = p ** rng.randint(1, max(1, int(math.log(100_000, p))))
        else:
            low = 2 if kind == "square-full" else 1
            r = math.prod(p ** rng.randint(low, 3) for p in rng.sample(primes[:8], rng.randint(1, 3)))
        if not 1 < r <= 100_000:
            continue
        t = rng.randint(1, 3) if rng.random() < 0.5 else rng.randint(1, max_t)
        points.append((t * r + (rng.randrange(r) if rng.random() < 0.5 else 0), r))
    return points


def random_change_of_basis(rng: random.Random, n: int):
    """Invertible rational matrix: a product of elementary shears."""
    P = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        for k in range(n):
            P[i][k] += c * P[j][k]
    return P


# -- exact references that only the tests use --------------------------------


def rank(rows) -> int:
    return len(echelon(rows)[0])


def solve_coords(basis_rows, v) -> tuple[int, list[int]] | None:
    """Coordinates of v in the given independent rows, as (D, D * coords); or None.

    D is the least positive integer making D * coords integral, the form
    integral() gives; None means v is outside the rows' span.  The system
    sum_i c_i * basis_rows[i] = v is eliminated over its transpose: each
    echelon row is then zero away from its pivot and the last column, and
    primitive, so c_col = r[k] / r[col] is already in lowest terms.
    """
    k = len(basis_rows)
    ech, pivots = echelon([[b[j] for b in basis_rows] + [x] for j, x in enumerate(v)])
    if pivots and pivots[-1] == k:
        return None  # inconsistent
    den = math.lcm(*(r[col] for r, col in zip(ech, pivots)))
    coords = [0] * k
    for r, col in zip(ech, pivots):
        coords[col] = r[k] * (den // r[col])
    return den, coords


def poly_int(p) -> list[int]:
    """Primitive integer coefficients (ascending) with a positive leading coefficient."""
    return primitive(integral(p)[1][::-1])[::-1]


def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_divmod(p, q):
    """(quotient, remainder) of polynomials over Q, coefficients ascending, in Fractions."""
    p = _poly_trim([Fraction(x) for x in p])
    q = _poly_trim([Fraction(x) for x in q])
    quot = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    while len(p) >= len(q):
        c = p[-1] / q[-1]
        k = len(p) - len(q)
        quot[k] = c
        for i, b in enumerate(q):
            p[i + k] -= c * b
        _poly_trim(p)
    return _poly_trim(quot), p


def poly_gcd(p, q):
    """Monic gcd over Q by Euclid's algorithm in Fractions; [] when both are zero."""
    p = _poly_trim([Fraction(x) for x in p])
    q = _poly_trim([Fraction(x) for x in q])
    while q:
        p, q = q, poly_divmod(p, q)[1]
    return [x / p[-1] for x in p] if p else p


def squarefree_part(p) -> list[int]:
    """p / gcd(p, p') as poly_int gives it: p with each repeated factor kept once."""
    deriv = [i * Fraction(c) for i, c in enumerate(p)][1:]
    return poly_int(poly_divmod(p, poly_gcd(p, deriv))[0])


def coassociativity_failure(c) -> int | None:
    """First basis index where coassociativity fails, or None: the unpacked reference.

    On e_i the terms of (Delta (x) id) Delta are added to one signed dict and
    those of (id (x) Delta) Delta subtracted from it, keyed by the triple
    (a, b, c) as the integer (a * n + b) * n + c, on delta scaled to
    integers; the axiom holds at i iff every value is 0.  This is the check
    validate ran before it packed each slice into one integer.
    """
    n = c.dim
    den, delta = c.integral_delta
    rows = [[] for _ in range(n)]
    for i, j, k, x in delta:
        rows[i].append((j, k, x))
    # a term (a, b, y) of row j lands at key (a*n + b)*n + k on the left, and
    # a term (u, v, y) of row k at key j*n*n + (u*n + v) on the right
    left_keys = [[((a * n + b) * n, y) for a, b, y in row] for row in rows]
    right_keys = [[(u * n + v, y) for u, v, y in row] for row in rows]
    nn = n * n
    for i in range(n):
        acc: dict[int, int] = {}
        for j, k, x in rows[i]:
            for key, y in left_keys[j]:
                key += k
                acc[key] = acc.get(key, 0) + x * y
            offset = j * nn
            for key, y in right_keys[k]:
                key += offset
                acc[key] = acc.get(key, 0) - x * y
        if any(acc.values()):
            return i
    return None

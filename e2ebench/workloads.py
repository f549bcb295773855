"""Seeded corpora for the three workloads.

A workload is a list of requests over generated documents; one *round* runs
every request once, in a seeded order.  The families, sizes and command mix
of a round are fixed tables below; the seed only draws coefficients,
coordinate changes, exponents and the order.  So every seed costs about the
same, and two seeds are two samples of one workload.

Every generated document is checked against the oracle's own arithmetic
before use (distinct lines, general position where promised), so no request
of a round is expected to fail.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from oracles import canonical, fmt, plane_points, rank

DEFAULT_SEED = 1

# (family, rank, flats copies, classify copies) per round.  Braid A_r lives
# in C^(r+1) with C(r+1, 2) hyperplanes x_i - x_j; Coxeter B_r in C^r with
# r^2 hyperplanes x_i - x_j, x_i + x_j, x_i.  Copies differ by a seeded
# signed coordinate permutation, a translation, row scalings and the
# hyperplane order.  The counts put the median request among the many
# light ones (classify, small flats) and the 90th percentile on A5 flats,
# both inside a group of similar latencies rather than at a gap.
REFLECTION = (
    ("braid", 6, 1, 0),
    ("coxeter_b", 5, 1, 0),
    ("braid", 5, 2, 2),
    ("coxeter_b", 4, 2, 2),
    ("braid", 4, 3, 3),
    ("braid", 3, 3, 3),
    ("coxeter_b", 3, 3, 3),
)

# (n, m, coefficient kind).  "small": integers with |a| <= 6; "wide":
# rationals p/q with |p| < 2^14 and 1 <= q < 2^6 (about 20 bits each).
GENERIC = tuple(
    (n, m, kind)
    for kind in ("small", "wide")
    for n, m in ((3, 8), (3, 11), (3, 14), (4, 8), (4, 10), (4, 12))
)
GENERIC_COMMANDS = ("classify", "flats", "factors", "count", "verdict", "certificate")

# Seeded copies per round of each generic and plane table row.  Costs vary
# with the drawn coefficients; two copies per row smooth the latency
# distribution, so that its median does not jump from seed to seed.
COPIES = 2

# (family, size, beta rule, user resolution?).  Sizes: pencil lines; five-line
# translates; grid columns (the grid has columns + rows + diagonals lines);
# random lines with small coefficients (some triple points) or wide ones
# (almost surely none, so verdicts reach the normal-crossing rule).  Beta
# rules name the verdict rule the exponents aim at.
PLANE = (
    ("pencil", 8, "integral_sum", False),
    ("pencil", 12, "some_integral", False),
    ("pencil", 20, "nonintegral_sum", True),
    ("pencil", 40, "integral_sum", False),
    ("five_lines", 2, "one_integral_point", False),
    ("five_lines", 4, "generic", True),
    ("five_lines", 8, "one_integral_point", False),
    ("grid", 3, "thirds", False),
    ("grid", 4, "generic", True),
    ("grid", 8, "thirds", False),
    ("general_lines", 10, "generic", False),
    ("random_lines", 8, "generic", False),
    ("random_lines", 16, "generic", False),
    ("random_lines", 24, "generic", False),
)
PLANE_COMMANDS = ("resolve", "pullback", "certificate")
VERDICT_MAX_LINES = 20  # classify refuses larger arrangements

WORKLOADS = ("reflection", "generic", "plane")


@dataclass
class Doc:
    key: str
    data: dict
    meta: dict
    path: str = ""


@dataclass(frozen=True)
class Request:
    rid: str
    doc: Doc
    command: str
    dot: str | None = None

    def argv(self) -> list[str]:
        m = len(self.doc.data["hyperplanes"])
        argv = [self.command, "--input", self.doc.path, "--format", "json"]
        if m > 16:
            argv += ["--limit", str(m)]
        if self.dot:
            argv += ["--dot", self.dot]
        return argv


def _row_doc(dim: int, rows, beta=None, resolution=None) -> dict:
    doc = {
        "dim": dim,
        "hyperplanes": [
            {"coeffs": [fmt(a) for a in row[:-1]], "constant": fmt(row[-1])} for row in rows
        ],
    }
    if beta is not None:
        doc["beta"] = [fmt(b) for b in beta]
    if resolution is not None:
        doc["resolution"] = {"multiplicities": [[str(x) for x in r] for r in resolution]}
    return doc


# --- reflection ---------------------------------------------------------

_SCALES = tuple(Fraction(s) for s in ("1", "-1", "2", "-3", "1/2", "3/2", "-2/3"))


def _reflection_rows(family: str, r: int) -> tuple[int, list[list[int]]]:
    n = r + 1 if family == "braid" else r
    rows = []
    for i, j in combinations(range(n), 2):
        for s in (-1,) if family == "braid" else (-1, 1):
            a = [0] * n
            a[i], a[j] = 1, s
            rows.append(a)
    if family == "coxeter_b":
        rows += [[1 if k == i else 0 for k in range(n)] for i in range(n)]
    return n, rows


def _reflection_doc(family: str, r: int, rng: random.Random) -> dict:
    n, normals = _reflection_rows(family, r)
    perm = rng.sample(range(n), n)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    shift = [rng.randint(-2, 2) for _ in range(n)]
    rows = []
    for a in normals:
        b = [0] * n
        for k, x in enumerate(a):
            b[perm[k]] = signs[k] * x
        c = -sum(x * v for x, v in zip(b, shift))
        s = rng.choice(_SCALES)
        rows.append([s * x for x in (*b, c)])
    rng.shuffle(rows)
    return _row_doc(n, rows)


def _reflection(rng: random.Random) -> list[Request]:
    requests = []
    for family, r, n_flats, n_classify in REFLECTION:
        for v in range(max(n_flats, n_classify)):
            name = f"{'A' if family == 'braid' else 'B'}{r}.v{v}"
            doc = Doc(name, _reflection_doc(family, r, rng), {"family": family})
            if v < n_flats:
                requests.append(Request(f"{name} flats", doc, "flats"))
            if v < n_classify:
                requests.append(Request(f"{name} classify", doc, "classify"))
    # one Hasse diagram export per round, on a braid A4 copy
    a4 = next(r.doc for r in requests if r.doc.key == "A4.v0")
    requests.append(Request("A4.v0 flats-dot", a4, "flats", dot="A4.v0"))
    return requests


# --- generic ------------------------------------------------------------

def _coefficient(kind: str, rng: random.Random) -> Fraction:
    if kind == "small":
        return Fraction(rng.randint(-6, 6))
    return Fraction(rng.randint(-(2**14) + 1, 2**14 - 1), rng.randint(1, 2**6 - 1))


def _general_position(n: int, m: int, kind: str, rng: random.Random) -> list[list[Fraction]]:
    """m hyperplanes in C^n: every n normals independent and every n+1
    augmented rows independent (so any n+1 hyperplanes miss each other)."""
    rows: list[list[Fraction]] = []
    ints: list[tuple[int, ...]] = []
    while len(rows) < m:
        row = [_coefficient(kind, rng) for _ in range(n + 1)]
        if not any(row[:-1]):
            continue
        cand = canonical(row[:-1], row[-1])
        size = min(len(ints), n - 1)
        if all(
            rank([ints[i][:-1] for i in s] + [cand[:-1]]) == size + 1
            for s in combinations(range(len(ints)), size)
        ) and all(rank([ints[i] for i in s] + [cand]) == n + 1 for s in combinations(range(len(ints)), n)):
            rows.append(row)
            ints.append(cand)
    return rows


def _nonintegral(rng: random.Random) -> Fraction:
    q = rng.randint(2, 9)
    return Fraction(rng.choice([p for p in range(-3 * q, 3 * q) if p % q]), q)


def _generic(rng: random.Random) -> list[Request]:
    requests = []
    for idx, (n, m, kind) in enumerate(GENERIC):
        for copy in range(COPIES):
            rows = _general_position(n, m, kind, rng)
            beta = [_nonintegral(rng) for _ in range(m)]
            # every other arrangement has a third of its exponents integral, so
            # verdicts reach both the integral-exponent and normal-crossing rules
            if (idx + copy) % 2 == 0:
                for i in rng.sample(range(m), m // 3):
                    beta[i] = Fraction(rng.randint(-3, 3))
            name = f"G{n}.{m}.{kind}.v{copy}"
            doc = Doc(name, _row_doc(n, rows, beta), {"family": "generic"})
            requests += [Request(f"{name} {c}", doc, c) for c in GENERIC_COMMANDS]
    return requests


# --- plane ----------------------------------------------------------------

def _small(rng: random.Random, lo: int = -5, hi: int = 5) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice((1, 1, 2, 3)))


def _pencil(k: int, rng: random.Random) -> list[list[Fraction]]:
    px, py = _small(rng), _small(rng)
    dirs: set[tuple[int, int]] = set()
    while len(dirs) < k:
        a, b = rng.randint(-7, 7), rng.randint(-7, 7)
        if (a, b) != (0, 0):
            dirs.add(canonical((a, b), 0)[:2])
    return [[Fraction(a), Fraction(b), -(a * px + b * py)] for a, b in sorted(dirs)]


def _five_lines(copies: int, rng: random.Random) -> list[list[Fraction]]:
    base = ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 1, -1), (1, 1, -1))
    rows = []
    for _ in range(copies):
        tx, ty = Fraction(rng.randint(-40, 40), 7), Fraction(rng.randint(-40, 40), 11)
        rows += [[Fraction(a), Fraction(b), c - a * tx - b * ty] for a, b, c in base]
    return rows


def _grid(cols: int, rng: random.Random) -> list[list[Fraction]]:
    """x = i, y = j (i, j < cols) and the diagonals x - y = d through the
    grid, each scaled and offset by a seeded affine change of x."""
    s, t = _small(rng, 1, 4), _small(rng)
    rows = [[Fraction(1), Fraction(0), -(s * i + t)] for i in range(cols)]
    rows += [[Fraction(0), Fraction(1), Fraction(-j)] for j in range(cols)]
    # x - s*y = t + s*d passes through (s*i + t, j) exactly when i - j = d
    rows += [[Fraction(1), -s, -(t + s * d)] for d in range(-(cols - 2), cols - 1)]
    return rows


def _random_lines(k: int, rng: random.Random) -> list[list[Fraction]]:
    return [[_small(rng), _small(rng), _small(rng)] for _ in range(k)]


def _general_lines(k: int, rng: random.Random) -> list[list[Fraction]]:
    return [[_small(rng, -60, 60), _small(rng, -60, 60), _small(rng, -60, 60)] for _ in range(k)]


_PLANE_BUILDERS = {
    "pencil": _pencil,
    "five_lines": _five_lines,
    "grid": _grid,
    "random_lines": _random_lines,
    "general_lines": _general_lines,
}


def _distinct_lines(family: str, size: int, rng: random.Random) -> list[list[Fraction]]:
    while True:
        rows = _PLANE_BUILDERS[family](size, rng)
        if all(r[0] or r[1] for r in rows) and len({canonical(r[:2], r[2]) for r in rows}) == len(rows):
            return rows


def _plane_beta(rule: str, triples, m: int, rng: random.Random) -> list[Fraction]:
    """Exponents aimed at one verdict rule; redrawn until the entries that
    the rule wants non-integral are."""
    if rule == "thirds":
        # numerators 1 mod 3: every point on exactly three lines sums to an
        # integer, so non-concurrent grids reach the inconclusive rule
        return [Fraction(rng.choice((-5, -2, 1, 4, 7)), 3) for _ in range(m)]
    while True:
        beta = [_nonintegral(rng) for _ in range(m)]
        if rule == "some_integral":
            for i in rng.sample(range(m), m // 4):
                beta[i] = Fraction(rng.randint(-3, 3))
            return beta
        if rule in ("integral_sum", "nonintegral_sum"):
            # a pencil has one point: its exceptional sum is the total
            offset = 0 if rule == "integral_sum" else Fraction(1, 2)
            beta[-1] = rng.randint(-5, 5) + offset - sum(beta[:-1], Fraction(0))
        elif rule == "one_integral_point":
            first = triples[0]
            others = sum((beta[i - 1] for i in first[:-1]), Fraction(0))
            beta[first[-1] - 1] = rng.randint(-3, 3) - others
        if all(b.denominator != 1 for b in beta):
            return beta


def _plane(rng: random.Random) -> list[Request]:
    requests = []
    for family, size, rule, user_res in PLANE:
        for copy in range(COPIES):
            rows = _distinct_lines(family, size, rng)
            m = len(rows)
            points = plane_points({"hyperplanes": [{"coeffs": r[:2], "constant": r[2]} for r in rows]})
            triples = sorted(lines for lines in points.values() if len(lines) >= 3)
            beta = _plane_beta(rule, triples, m, rng)
            resolution = None
            if user_res:
                resolution = [[1 if i in lines else 0 for i in range(1, m + 1)] for lines in triples]
                rng.shuffle(resolution)
            name = f"{family}.{size}.v{copy}"
            doc = Doc(name, _row_doc(2, rows, beta, resolution), {"family": family})
            commands = PLANE_COMMANDS + (("verdict",) if m <= VERDICT_MAX_LINES else ())
            requests += [Request(f"{name} {c}", doc, c) for c in commands]
    return requests


_BUILDERS = {"reflection": _reflection, "generic": _generic, "plane": _plane}


def describe() -> dict:
    """Generator parameters of each workload, as workloads.json records them."""
    return {
        "reflection": {
            "columns": ["family", "rank", "flats copies", "classify copies"],
            "table": REFLECTION,
            "also": "one flats --dot on A4.v0",
        },
        "generic": {
            "columns": ["n", "m", "coefficients"],
            "table": GENERIC,
            "copies": COPIES,
            "commands": GENERIC_COMMANDS,
        },
        "plane": {
            "columns": ["family", "size", "beta rule", "user resolution"],
            "table": PLANE,
            "copies": COPIES,
            "commands": PLANE_COMMANDS,
            "verdict_max_lines": VERDICT_MAX_LINES,
        },
    }


def build(workload: str, seed: int, workdir: str) -> list[Request]:
    """Generate the corpus, write its documents under ``workdir`` and return
    one round of requests in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    requests = _BUILDERS[workload](rng)
    docs = {id(r.doc): r.doc for r in requests}
    for idx, doc in enumerate(docs.values()):
        doc.path = os.path.join(workdir, f"{idx:03d}.json")
        with open(doc.path, "w", encoding="utf-8") as fh:
            json.dump(doc.data, fh)
    requests = [
        Request(r.rid, r.doc, r.command, os.path.join(workdir, f"{r.dot}.dot") if r.dot else None)
        for r in requests
    ]
    rng.shuffle(requests)
    return requests

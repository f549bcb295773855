"""Independent checkers for CLI responses.

Nothing here imports arrdmod.  Each checker recomputes the answer from the
generated document with closed forms (braid, Coxeter B_n, general position)
or brute force (pairwise line intersections), and raises `Mismatch` on the
first difference.  The small exact linear algebra the generators need
(canonical hyperplanes, ranks) lives here too, so that it shares
nothing with the library under test.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm


class Mismatch(Exception):
    """A response differs from the oracle's answer."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def fmt(value) -> str:
    q = Fraction(value)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def canonical(normal, constant) -> tuple[int, ...]:
    """Coprime integer row (a_1, .., a_n, c), first nonzero a_i positive."""
    vals = [Fraction(x) for x in (*normal, constant)]
    scale = lcm(*(v.denominator for v in vals))
    ints = [int(v * scale) for v in vals]
    g = gcd(*ints)
    ints = [x // g for x in ints]
    if next(x for x in ints[:-1] if x) < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def rank(rows) -> int:
    """Rank of an integer matrix (fraction-free forward elimination)."""
    mat = [list(r) for r in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        p = mat[rank]
        for row in mat[rank + 1 :]:
            f = row[col]
            for j in range(col, len(row)):
                row[j] = row[j] * p[col] - f * p[j]
        rank += 1
    return rank


def _rows(doc) -> list[tuple[int, ...]]:
    return [canonical(h["coeffs"], h["constant"]) for h in doc["hyperplanes"]]


def _beta(doc) -> list[Fraction]:
    return [Fraction(b) for b in doc["beta"]]


def _echo(doc) -> dict:
    out = {
        "dim": doc["dim"],
        "hyperplanes": [
            {"coeffs": [str(x) for x in row[:-1]], "constant": str(row[-1])}
            for row in _rows(doc)
        ],
    }
    if "beta" in doc:
        out["beta"] = [fmt(b) for b in _beta(doc)]
    if "resolution" in doc:
        out["resolution"] = {
            "multiplicities": [
                [str(int(x)) for x in row] for row in doc["resolution"]["multiplicities"]
            ]
        }
    return out


def _integral(q: Fraction) -> bool:
    return q.denominator == 1


def _units(m: int) -> list[tuple[int, ...]]:
    return [tuple(1 if j == i else 0 for j in range(m)) for i in range(m)]


def _forms(m: int, rows) -> list[list[int]]:
    return [list(f) for f in sorted(set(_units(m)) | {tuple(r) for r in rows})]


# --- posets: Moebius function over closure-set inclusion --------------------

def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _product_of_roots(roots) -> list[int]:
    """Coefficients (lowest degree first) of prod (t - r)."""
    poly = [1]
    for r in roots:
        poly = _poly_mul(poly, [-r, 1])
    return poly


def bell(n: int) -> int:
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def _check_poset(resp: dict, n: int) -> list[int]:
    """Check order, dims and covers of a `flats` response; return chi(t)."""
    flats = resp["flats"]
    sets = [frozenset(f["closure"]) for f in flats]
    codims = [f["codim"] for f in flats]
    expect(flats and flats[0]["closure"] == [] and codims[0] == 0, "ambient flat first")
    keys = [(f["codim"], f["closure"]) for f in flats]
    expect(keys == sorted(keys) and len(set(sets)) == len(sets), "flats sorted and distinct")
    expect(all(f["dim"] == n - f["codim"] for f in flats), "dim = n - codim")
    expect(all(f["closure"] == sorted(f["closure"]) for f in flats), "sorted closures")
    mobius = []
    covers = []
    for k, s in enumerate(sets):
        below = [g for g in range(k) if sets[g] < s]
        expect(all(codims[g] < codims[k] for g in below), "codim grows with closure")
        mobius.append(1 if k == 0 else -sum(mobius[g] for g in below))
        covers += [(g, k) for g in below if codims[g] == codims[k] - 1]
    # a geometric (semi)lattice is graded by codim: covers are the
    # inclusions that raise it by one
    expect([tuple(c) for c in resp["cover_relations"]] == sorted(covers), "cover relations")
    chi = [0] * (n + 1)
    for mu, c in zip(mobius, codims):
        chi[n - c] += mu
    return chi


def _dot_text(resp: dict) -> str:
    lines = ["digraph intersection_poset {", "  rankdir=BT;"]
    for idx, flat in enumerate(resp["flats"]):
        label = "{" + ",".join(map(str, flat["closure"])) + "}"
        lines.append(f'  n{idx} [label="{label}"];')
    lines += [f"  n{lo} -> n{hi};" for lo, hi in resp["cover_relations"]]
    return "\n".join(lines + ["}"]) + "\n"


# --- per-workload checkers --------------------------------------------------

def _check_reflection(meta, command, doc, resp, dot):
    n = doc["dim"]
    if command == "classify":
        expect(
            resp["classification"]
            == {
                "general_position": False,
                "normal_crossing": False,
                "central": True,
                "common_intersection_dim": 1 if meta["family"] == "braid" else 0,
            },
            "classification",
        )
        return
    chi = _check_poset(resp, n)
    if meta["family"] == "braid":
        expect(len(resp["flats"]) == bell(n), f"Bell({n}) flats")
        expect(chi == _product_of_roots(range(n)), "braid characteristic polynomial")
    else:
        expect(
            chi == _product_of_roots(2 * k - 1 for k in range(1, n + 1)),
            "B_n characteristic polynomial",
        )
    if dot is not None:
        expect(dot == _dot_text(resp), "DOT file")


def _check_generic(meta, command, doc, resp, dot):
    n, m = doc["dim"], len(doc["hyperplanes"])
    beta = _beta(doc)
    integral = [i for i, b in enumerate(beta, start=1) if _integral(b)]
    k = len(integral)
    subsets = sorted(
        (len(s), list(s)) for p in range(n + 1) for s in combinations(range(1, m + 1), p)
    )
    flats = [{"closure": s, "codim": c, "dim": n - c} for c, s in subsets]
    if command == "classify":
        expect(
            resp["classification"]
            == {
                "general_position": True,
                "normal_crossing": True,
                "central": False,
                "common_intersection_dim": None,
            },
            "classification",
        )
    elif command == "flats":
        expect(resp["flats"] == flats, "flats = all subsets of size <= n")
        expect(len(flats) == sum(comb(m, j) for j in range(n + 1)), "flat count")
        index = {tuple(f["closure"]): i for i, f in enumerate(flats)}
        covers = sorted(
            (index[tuple(x for x in f["closure"] if x != drop)], i)
            for i, f in enumerate(flats)
            for drop in f["closure"]
        )
        expect([tuple(c) for c in resp["cover_relations"]] == covers, "cover relations")
    elif command == "factors":
        supports = [f for f in flats if set(f["closure"]) <= set(integral)]
        expect(resp["factors"]["count"] == sum(comb(k, j) for j in range(n + 1)), "factor count")
        expect(resp["factors"]["supports"] == supports, "factor supports")
    elif command == "count":
        expect(
            resp["count"]
            == {
                "n": n,
                "m": m,
                "integral_exponents": k,
                "factor_count": sum(comb(k, j) for j in range(n + 1)),
                "flat_count": sum(comb(m, j) for j in range(n + 1)),
            },
            "closed-form counts",
        )
    elif command == "verdict":
        verdict = resp["verdict"]
        if integral:
            expect(verdict["status"] == "REDUCIBLE", "verdict status")
            expect(verdict["rule"] == "integral-exponent", "verdict rule")
            expect(f"of H_{integral[0]} = V(" in verdict["witness"], "verdict witness")
        else:
            expect(
                verdict
                == {
                    "status": "IRREDUCIBLE",
                    "rule": "normal-crossing",
                    "certificate": {"forms": _forms(m, [])},
                },
                "normal-crossing verdict",
            )
    else:
        expect(resp["certificate"] == {"forms": _forms(m, [])}, "unit-form certificate")


def plane_points(doc) -> dict[tuple[Fraction, Fraction], tuple[int, ...]]:
    """Every intersection point of the lines, with the (1-based) lines on it,
    by exact pairwise 2x2 elimination."""
    rows = _rows(doc)
    points: dict[tuple[Fraction, Fraction], set[int]] = {}
    for (i, (a1, b1, c1)), (j, (a2, b2, c2)) in combinations(enumerate(rows, 1), 2):
        d = a1 * b2 - a2 * b1
        if d == 0:
            continue
        point = (Fraction(b1 * c2 - b2 * c1, d), Fraction(a2 * c1 - a1 * c2, d))
        points.setdefault(point, set()).update((i, j))
    return {p: tuple(sorted(s)) for p, s in points.items()}


def _check_plane(meta, command, doc, resp, dot):
    m = len(doc["hyperplanes"])
    points = plane_points(doc)
    centers = sorted((lines, p) for p, lines in points.items() if len(lines) >= 3)
    center_rows = [[1 if i in lines else 0 for i in range(1, m + 1)] for lines, _ in centers]
    user = doc.get("resolution")
    rows = [[int(x) for x in r] for r in user["multiplicities"]] if user else center_rows
    if command == "resolve":
        expect(
            resp["resolution"]
            == {
                "source": "plane_blowup",
                "centers": [
                    {"point": [fmt(x) for x in p], "incident": list(lines)}
                    for lines, p in centers
                ],
                "multiplicities": [[str(x) for x in r] for r in center_rows],
            },
            "blow-up centers",
        )
        return
    if command == "certificate":
        expect(resp["certificate"] == {"forms": _forms(m, rows)}, "certificate forms")
        return
    beta = _beta(doc)
    sums = [sum((r * b for r, b in zip(row, beta)), Fraction(0)) for row in rows]
    if command == "pullback":
        incident = [tuple(i for i, r in enumerate(row, 1) if r) for row in rows]
        strict = {i for i, b in enumerate(beta, 1) if _integral(b)}
        exc = {j for j, s in enumerate(sums, 1) if _integral(s)}
        blown = set(incident)
        survivors = sorted(lines for lines in points.values() if lines not in blown)
        supports = [[]] + [[f"H~{i}"] for i in sorted(strict)]
        supports += [[f"E{j}"] for j in sorted(exc)]
        supports += [[f"H~{i}", f"H~{j}"] for i, j in survivors if i in strict and j in strict]
        supports += [
            [f"H~{i}", f"E{j}"]
            for j, lines in enumerate(incident, 1)
            if j in exc
            for i in lines
            if i in strict
        ]
        expect(
            resp["pullback"]
            == {
                "strict_exponents": [fmt(b) for b in beta],
                "exceptional_exponents": [fmt(s) for s in sums],
                "count": len(supports),
                "supports": [{"divisors": d, "codim": len(d)} for d in supports],
            },
            "pull-back factors",
        )
        if meta["family"] == "pencil":
            k = len(strict)
            total = sum(beta, Fraction(0))
            expect(
                resp["pullback"]["count"] == (2 * (k + 1) if _integral(total) else k + 1),
                "pencil pull-back count 2(k+1) / k+1",
            )
        return
    verdict = resp["verdict"]
    integral = [i for i, b in enumerate(beta, 1) if _integral(b)]
    if integral:
        expect((verdict["status"], verdict["rule"]) == ("REDUCIBLE", "integral-exponent"), "rule 1")
        expect(f"of H_{integral[0]} = V(" in verdict["witness"], "rule 1 witness")
    elif not centers:
        expect(
            verdict
            == {"status": "IRREDUCIBLE", "rule": "normal-crossing", "certificate": {"forms": _forms(m, [])}},
            "rule 2",
        )
    elif not any(_integral(s) for s in sums):
        expect(
            verdict
            == {
                "status": "IRREDUCIBLE",
                "rule": "nonintegral-resolution-sums",
                "certificate": {"forms": _forms(m, rows)},
            },
            "rule 3",
        )
    elif any(len(lines) == m for lines in points.values()) and _integral(sum(beta)):
        expect((verdict["status"], verdict["rule"]) == ("REDUCIBLE", "concurrent-integral-sum"), "rule 4")
        expect(f"all {m} lines pass through" in verdict["witness"], "rule 4 witness")
    else:
        expect(
            (verdict["status"], verdict["rule"]) == ("INCONCLUSIVE", "integral-resolution-sum"),
            "rule 5",
        )
        for j, s in enumerate(sums, 1):
            expect((f"E{j}: " in verdict["reason"]) == _integral(s), "rule 5 reason")


_CHECKERS = {
    "braid": _check_reflection,
    "coxeter_b": _check_reflection,
    "generic": _check_generic,
    "pencil": _check_plane,
    "five_lines": _check_plane,
    "grid": _check_plane,
    "random_lines": _check_plane,
    "general_lines": _check_plane,
}

_PAYLOAD = {
    "classify": "classification",
    "flats": ("flats", "cover_relations"),
    "factors": "factors",
    "count": "count",
    "resolve": "resolution",
    "pullback": "pullback",
    "verdict": "verdict",
    "certificate": "certificate",
}


def check(meta: dict, command: str, doc: dict, resp: dict, dot: str | None) -> None:
    """Raise `Mismatch` unless ``resp`` is the right answer to ``command``."""
    payload = _PAYLOAD[command]
    keys = {"command", "input", *((payload,) if isinstance(payload, str) else payload)}
    expect(set(resp) == keys, f"response keys {sorted(resp)}")
    expect(resp["command"] == command, "command echo")
    expect(resp["input"] == _echo(doc), "canonical input echo")
    _CHECKERS[meta["family"]](meta, command, doc, resp, dot)

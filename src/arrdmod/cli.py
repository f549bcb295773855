"""Command-line front end: JSON in, text or JSON reports out.

Input document (all rationals are strings ``"p"`` or ``"p/q"``; floats are
never accepted)::

    {
      "dim": 2,
      "hyperplanes": [{"coeffs": ["1", "0"], "constant": "0"}, ...],
      "beta": ["1/2", "-1/3", ...],                      # optional
      "resolution": {"multiplicities": [["1", ...]]}     # optional
    }

Exit codes: 0 success, 1 I/O failure, 2 validation or precondition failure
(one-line diagnostic on stderr).  JSON mode prints exactly one object on
stdout, byte-stable for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import cache

from arrdmod.arrangement import Arrangement, classify
from arrdmod.errors import ArrdmodError, ValidationError
from arrdmod.exactla import format_rational, parse_rational
from arrdmod.factors import (
    ExponentVector,
    count_general_position,
    decomposition_factors,
    flat_count_general_position,
)
from arrdmod.poset import Flat, enumerate_flats, hasse_dot
from arrdmod.resolution import (
    ResolutionData,
    certificate,
    irreducibility_verdict,
    plane_resolution,
    pullback_exponents,
    pullback_factors,
)

COMMANDS = (
    "classify",
    "flats",
    "factors",
    "count",
    "resolve",
    "pullback",
    "verdict",
    "certificate",
)


@dataclass(frozen=True)
class InputDocument:
    """Parsed and normalized problem statement."""

    arrangement: Arrangement
    beta: ExponentVector | None
    resolution: ResolutionData | None

    def render(self) -> dict:
        """Canonical JSON-ready form; ``parse(render(doc))`` is ``doc``."""
        doc: dict = {
            "dim": self.arrangement.dim,
            "hyperplanes": [
                {
                    "coeffs": [format_rational(a) for a in h.normal],
                    "constant": format_rational(h.constant),
                }
                for h in self.arrangement.hyperplanes
            ],
        }
        if self.beta is not None:
            doc["beta"] = [format_rational(b) for b in self.beta.entries]
        if self.resolution is not None:
            doc["resolution"] = {
                "multiplicities": [
                    [str(r) for r in row] for row in self.resolution.multiplicities
                ]
            }
        return doc


def _rational_field(raw, where: str):
    if not isinstance(raw, str):
        raise ValidationError(f"{where}: rationals must be strings, got {raw!r}")
    try:
        return parse_rational(raw)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def parse_input(data) -> InputDocument:
    """Validate a decoded JSON document, naming the offending field on error."""
    if not isinstance(data, dict):
        raise ValidationError("input document must be a JSON object")
    dim = data.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ValidationError("dim: expected a positive integer")
    raw_planes = data.get("hyperplanes")
    if not isinstance(raw_planes, list):
        raise ValidationError("hyperplanes: expected a list")
    rows = []
    for idx, entry in enumerate(raw_planes):
        where = f"hyperplanes[{idx}]"
        if not isinstance(entry, dict):
            raise ValidationError(f"{where}: expected an object")
        coeffs = entry.get("coeffs")
        if not isinstance(coeffs, list) or len(coeffs) != dim:
            raise ValidationError(f"{where}.coeffs: expected {dim} rationals")
        normal = [
            _rational_field(c, f"{where}.coeffs[{j}]") for j, c in enumerate(coeffs)
        ]
        constant = _rational_field(entry.get("constant", "0"), f"{where}.constant")
        rows.append((normal, constant))
    arrangement = Arrangement.from_coefficients(dim, rows)

    beta = None
    if data.get("beta") is not None:
        raw_beta = data["beta"]
        if not isinstance(raw_beta, list) or len(raw_beta) != arrangement.m:
            raise ValidationError(
                f"beta: expected {arrangement.m} rationals (one per hyperplane)"
            )
        beta = ExponentVector.from_values(
            [_rational_field(b, f"beta[{j}]") for j, b in enumerate(raw_beta)]
        )

    resolution = None
    if data.get("resolution") is not None:
        raw_res = data["resolution"]
        if not isinstance(raw_res, dict) or not isinstance(
            raw_res.get("multiplicities"), list
        ):
            raise ValidationError("resolution.multiplicities: expected a matrix")
        matrix = []
        for j, raw_row in enumerate(raw_res["multiplicities"]):
            where = f"resolution.multiplicities[{j}]"
            if not isinstance(raw_row, list) or len(raw_row) != arrangement.m:
                raise ValidationError(f"{where}: expected {arrangement.m} entries")
            row = []
            for i, raw in enumerate(raw_row):
                value = _rational_field(raw, f"{where}[{i}]")
                if value.denominator != 1 or value < 0:
                    raise ValidationError(
                        f"{where}[{i}]: expected a nonnegative integer"
                    )
                row.append(int(value))
            matrix.append(row)
        resolution = ResolutionData.user_supplied(matrix)

    extra = set(data) - {"dim", "hyperplanes", "beta", "resolution"}
    if extra:
        raise ValidationError(f"unknown field(s): {', '.join(sorted(extra))}")
    return InputDocument(arrangement, beta, resolution)


def _require_beta(doc: InputDocument) -> ExponentVector:
    if doc.beta is None:
        raise ValidationError("beta: required by this command")
    return doc.beta


def _flat_json(flat) -> dict:
    if isinstance(flat, Flat):
        return {
            "closure": list(flat.closure_set),
            "codim": flat.codim,
            "dim": flat.dim,
        }
    return {"divisors": list(flat.divisors), "codim": flat.codim}


def _classification_json(klass) -> dict:
    common = klass.common_intersection
    return {
        "general_position": klass.general_position,
        "normal_crossing": klass.normal_crossing,
        "central": klass.central,
        "common_intersection_dim": common.dim if not common.is_empty else None,
    }


def _resolution_json(res: ResolutionData) -> dict:
    return {
        "source": res.source.value,
        "centers": [
            {
                "point": [format_rational(x) for x in c.point],
                "incident": list(c.incident),
            }
            for c in res.centers
        ],
        "multiplicities": [[str(r) for r in row] for row in res.multiplicities],
    }


def _verdict_json(verdict) -> dict:
    out: dict = {"status": verdict.status.value, "rule": verdict.rule}
    if verdict.witness is not None:
        out["witness"] = verdict.witness
    if verdict.reason is not None:
        out["reason"] = verdict.reason
    if verdict.certificate is not None:
        out["certificate"] = {"forms": [list(f) for f in verdict.certificate.forms]}
    return out


def _run_command(args, doc: InputDocument, out: list[str], report: dict) -> None:
    arr = doc.arrangement
    limit = args.limit
    if args.command == "classify":
        klass = classify(arr, limit)
        report["classification"] = _classification_json(klass)
        out.append(f"general position: {'yes' if klass.general_position else 'no'}")
        out.append(f"normal crossing:  {'yes' if klass.normal_crossing else 'no'}")
        out.append(f"central:          {'yes' if klass.central else 'no'}")
    elif args.command == "flats":
        poset = enumerate_flats(arr, limit)
        report["flats"] = [_flat_json(f) for f in poset.flats]
        report["cover_relations"] = [list(c) for c in poset.cover_relations]
        out.append(f"{len(poset.flats)} flats:")
        for flat in poset.flats:
            out.append(f"  {flat.label()}  codim {flat.codim}")
        if args.dot:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(hasse_dot(poset))
            out.append(f"DOT written to {args.dot}")
    elif args.command == "factors":
        rep = decomposition_factors(arr, _require_beta(doc), limit)
        report["factors"] = {
            "count": rep.count,
            "supports": [_flat_json(f) for f in rep.supports],
        }
        out.append(f"count: {rep.count}")
        for flat in rep.supports:
            out.append(f"  support {flat.label()}")
    elif args.command == "count":
        beta = _require_beta(doc)
        if not classify(arr, limit).general_position:
            raise ValidationError(
                "count applies the closed-form formulas, which require a "
                "general position arrangement; use `factors` instead"
            )
        k = len(beta.integral_indices())
        report["count"] = {
            "n": arr.dim,
            "m": arr.m,
            "integral_exponents": k,
            "factor_count": count_general_position(arr.dim, k),
            "flat_count": flat_count_general_position(arr.dim, arr.m),
        }
        out.append(f"n={arr.dim} m={arr.m} k={k}")
        out.append(f"factor count: {count_general_position(arr.dim, k)}")
        out.append(f"flat count:   {flat_count_general_position(arr.dim, arr.m)}")
    elif args.command == "resolve":
        res = plane_resolution(arr)
        report["resolution"] = _resolution_json(res)
        out.append(f"{len(res.centers)} blow-up center(s)")
        for c in res.centers:
            point = ", ".join(format_rational(x) for x in c.point)
            out.append(f"  ({point}) on {{{','.join(map(str, c.incident))}}}")
    elif args.command == "pullback":
        beta = _require_beta(doc)
        res = doc.resolution if doc.resolution is not None else plane_resolution(arr)
        extended = pullback_exponents(res, beta)
        rep = pullback_factors(arr, beta, res)
        report["pullback"] = {
            "strict_exponents": [format_rational(b) for b in extended.strict],
            "exceptional_exponents": [
                format_rational(b) for b in extended.exceptional
            ],
            "count": rep.count,
            "supports": [_flat_json(f) for f in rep.supports],
        }
        exc = ", ".join(format_rational(b) for b in extended.exceptional) or "none"
        out.append(f"exceptional exponents: {exc}")
        out.append(f"count: {rep.count}")
        for flat in rep.supports:
            out.append(f"  support {flat.label()}")
    elif args.command == "verdict":
        verdict = irreducibility_verdict(arr, _require_beta(doc), doc.resolution, limit)
        report["verdict"] = _verdict_json(verdict)
        out.append(f"verdict: {verdict.status.value}")
        out.append(f"rule: {verdict.rule}")
        if verdict.witness:
            out.append(f"witness: {verdict.witness}")
        if verdict.reason:
            out.append(f"reason: {verdict.reason}")
        if verdict.certificate:
            for form in verdict.certificate.forms:
                out.append(f"  form {list(form)}")
    else:  # certificate
        cert = certificate(arr, doc.resolution, limit)
        report["certificate"] = {"forms": [list(f) for f in cert.forms]}
        out.append(f"{len(cert.forms)} irreducibility form(s):")
        for form in cert.forms:
            out.append(f"  {list(form)}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


@cache
def _build_parser() -> _Parser:
    """The argument parser, built on first use and shared by every call."""
    parser = _Parser(prog="arrdmod", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--input", required=True, help="path to the JSON document")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument(
            "--limit",
            type=int,
            default=None,
            help=(
                "hyperplane-count cap for flat enumeration and for classification"
                " in dimension >= 3 (ARRDMOD_LIMIT also works)"
            ),
        )
        if name == "flats":
            p.add_argument("--dot", default=None, help="write the Hasse diagram here")
    return parser


def execute(argv) -> tuple[int, str, str]:
    """Run one command; returns (exit code, stdout, stderr)."""
    try:
        args = _build_parser().parse_args(argv)
    except ValidationError as exc:
        return 2, "", f"arrdmod: {exc}\n"
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        return 1, "", f"arrdmod: {exc}\n"
    except UnicodeDecodeError as exc:
        return 2, "", f"arrdmod: input is not UTF-8: {exc}\n"
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        return 2, "", f"arrdmod: malformed JSON: {exc}\n"
    except RecursionError:
        return 2, "", "arrdmod: malformed JSON: nested too deeply\n"
    except ValueError:
        # json's only other ValueError: an integer literal beyond the int
        # string-conversion limit
        digits = sys.get_int_max_str_digits()
        return 2, "", f"arrdmod: a JSON number has more than {digits} digits\n"
    try:
        doc = parse_input(data)
        report: dict = {"command": args.command, "input": doc.render()}
        out: list[str] = []
        _run_command(args, doc, out, report)
    except ArrdmodError as exc:
        return 2, "", f"arrdmod: {exc}\n"
    except OSError as exc:
        return 1, "", f"arrdmod: {exc}\n"
    if args.format == "json":
        return 0, json.dumps(report, indent=2) + "\n", ""
    return 0, "\n".join(out) + "\n", ""


def main(argv=None) -> int:
    code, out, err = execute(sys.argv[1:] if argv is None else argv)
    if out:
        sys.stdout.write(out)
    if err:
        sys.stderr.write(err)
    return code


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line behaviour: subcommands, formats, exit codes, stability."""

from __future__ import annotations

import json

import pytest

from arrdmod.cli import execute, parse_input

TRIANGLE = {
    "dim": 2,
    "hyperplanes": [
        {"coeffs": ["1", "0"], "constant": "0"},
        {"coeffs": ["0", "1"], "constant": "0"},
        {"coeffs": ["1", "1"], "constant": "1"},
    ],
    "beta": ["2", "-1", "0"],
}

CONCURRENT3 = {
    "dim": 2,
    "hyperplanes": [
        {"coeffs": ["1", "0"], "constant": "0"},
        {"coeffs": ["0", "1"], "constant": "0"},
        {"coeffs": ["1", "1"], "constant": "0"},
    ],
    "beta": ["1/3", "1/3", "1/3"],
}


@pytest.fixture
def write_doc(tmp_path):
    def _write(doc, name="input.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return _write


class TestCommands:
    def test_factors_json_count(self, write_doc):
        code, out, err = execute(
            ["factors", "--input", write_doc(TRIANGLE), "--format", "json"]
        )
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["command"] == "factors"
        assert report["factors"]["count"] == 7

    def test_flats_dot_output(self, write_doc, tmp_path):
        dot_path = tmp_path / "out.dot"
        code, out, err = execute(
            ["flats", "--input", write_doc(TRIANGLE), "--dot", str(dot_path)]
        )
        assert code == 0
        dot = dot_path.read_text()
        assert dot.count("label=") == 7 and dot.count("->") == 9

    def test_verdict_concurrent(self, write_doc):
        code, out, err = execute(["verdict", "--input", write_doc(CONCURRENT3)])
        assert code == 0
        assert "REDUCIBLE" in out and "concurrent-integral-sum" in out

    def test_factors_precondition_diagnostic(self, write_doc):
        code, out, err = execute(["factors", "--input", write_doc(CONCURRENT3)])
        assert code == 2 and out == ""
        assert "normal crossing" in err and "resolve" in err

    def test_classify_text(self, write_doc):
        code, out, err = execute(["classify", "--input", write_doc(TRIANGLE)])
        assert code == 0
        assert "general position: yes" in out and "central:          no" in out

    def test_count_formulas(self, write_doc):
        code, out, err = execute(
            ["count", "--input", write_doc(TRIANGLE), "--format", "json"]
        )
        assert code == 0
        section = json.loads(out)["count"]
        assert section == {
            "n": 2,
            "m": 3,
            "integral_exponents": 3,
            "factor_count": 7,
            "flat_count": 7,
        }

    def test_resolve_and_pullback(self, write_doc):
        code, out, err = execute(
            ["resolve", "--input", write_doc(CONCURRENT3), "--format", "json"]
        )
        assert code == 0
        res = json.loads(out)["resolution"]
        assert res["multiplicities"] == [["1", "1", "1"]]
        assert res["centers"][0]["incident"] == [1, 2, 3]

        code, out, err = execute(
            ["pullback", "--input", write_doc(CONCURRENT3), "--format", "json"]
        )
        assert code == 0
        pull = json.loads(out)["pullback"]
        assert pull["exceptional_exponents"] == ["1"]
        assert pull["count"] == 2

    def test_certificate_json(self, write_doc):
        code, out, err = execute(
            ["certificate", "--input", write_doc(CONCURRENT3), "--format", "json"]
        )
        assert code == 0
        forms = json.loads(out)["certificate"]["forms"]
        assert forms == [[0, 0, 1], [0, 1, 0], [1, 0, 0], [1, 1, 1]]

    def test_user_resolution_consumed(self, write_doc):
        doc = {
            "dim": 3,
            "hyperplanes": [
                {"coeffs": ["1", "0", "0"], "constant": "0"},
                {"coeffs": ["0", "1", "0"], "constant": "0"},
                {"coeffs": ["1", "1", "0"], "constant": "0"},
            ],
            "beta": ["1/2", "1/3", "1/7"],
            "resolution": {"multiplicities": [["1", "1", "1"]]},
        }
        code, out, err = execute(["verdict", "--input", write_doc(doc), "--format", "json"])
        assert code == 0
        verdict = json.loads(out)["verdict"]
        assert verdict["status"] == "IRREDUCIBLE"
        assert [1, 1, 1] in verdict["certificate"]["forms"]


class TestExitCodes:
    def test_unknown_subcommand(self, write_doc):
        code, out, err = execute(["explode", "--input", write_doc(TRIANGLE)])
        assert code == 2 and "explode" in err

    def test_missing_file_is_io_error(self, tmp_path):
        code, out, err = execute(["classify", "--input", str(tmp_path / "no.json")])
        assert code == 1

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, out, err = execute(["classify", "--input", str(path)])
        assert code == 2 and "malformed JSON" in err

    def test_malformed_rational_names_field(self, write_doc):
        doc = json.loads(json.dumps(TRIANGLE))
        doc["hyperplanes"][1]["coeffs"][0] = "0.5"
        code, out, err = execute(["classify", "--input", write_doc(doc)])
        assert code == 2 and "hyperplanes[1].coeffs[0]" in err

    def test_float_rational_rejected(self, write_doc):
        doc = json.loads(json.dumps(TRIANGLE))
        doc["beta"] = [0.5, "1/3", "1/5"]
        code, out, err = execute(["verdict", "--input", write_doc(doc)])
        assert code == 2 and "beta[0]" in err

    def test_beta_required(self, write_doc):
        doc = {k: v for k, v in TRIANGLE.items() if k != "beta"}
        code, out, err = execute(["factors", "--input", write_doc(doc)])
        assert code == 2 and "beta" in err

    def test_resolve_dimension_guard(self, write_doc):
        doc = {
            "dim": 3,
            "hyperplanes": [{"coeffs": ["1", "0", "0"], "constant": "0"}],
        }
        code, out, err = execute(["resolve", "--input", write_doc(doc)])
        assert code == 2 and "dimension" in err

    def test_limit_flag(self, write_doc):
        code, out, err = execute(
            ["flats", "--input", write_doc(TRIANGLE), "--limit", "2"]
        )
        assert code == 2 and "limit" in err.lower()

    def test_env_limit(self, write_doc, monkeypatch):
        monkeypatch.setenv("ARRDMOD_LIMIT", "2")
        code, out, err = execute(["flats", "--input", write_doc(TRIANGLE)])
        assert code == 2 and "limit" in err.lower()
        code, out, err = execute(
            ["flats", "--input", write_doc(TRIANGLE), "--limit", "8"]
        )
        assert code == 0

    def test_non_integer_env_limit_is_diagnosed(self, write_doc, monkeypatch):
        monkeypatch.setenv("ARRDMOD_LIMIT", "abc")
        code, out, err = execute(["flats", "--input", write_doc(TRIANGLE)])
        assert code == 2 and out == ""
        assert err.startswith("arrdmod: ") and err.count("\n") == 1
        assert "ARRDMOD_LIMIT" in err and "'abc'" in err

    def test_rational_beyond_digit_limit(self, write_doc):
        doc = json.loads(json.dumps(TRIANGLE))
        doc["hyperplanes"][0]["coeffs"][0] = "1" * 5000
        code, out, err = execute(["classify", "--input", write_doc(doc)])
        assert code == 2 and out == ""
        assert err.startswith("arrdmod: hyperplanes[0].coeffs[0]: ")
        assert err.count("\n") == 1 and "digits" in err

    def test_json_number_beyond_digit_limit(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"dim": %s, "hyperplanes": []}' % ("1" * 5000))
        code, out, err = execute(["classify", "--input", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("arrdmod: ") and err.count("\n") == 1
        assert "digits" in err

    def test_canonical_coefficient_beyond_digit_limit(self, write_doc):
        # pairwise coprime 2500-digit denominators are accepted on input, but
        # the canonical integer coefficients have about 5000 digits
        a, b, c = (str(10**2499 + k) for k in (1, 3, 7))
        doc = {
            "dim": 2,
            "hyperplanes": [{"coeffs": [f"1/{a}", f"1/{b}"], "constant": f"1/{c}"}],
        }
        code, out, err = execute(["classify", "--input", write_doc(doc)])
        assert code == 2 and out == ""
        assert err.startswith("arrdmod: ") and err.count("\n") == 1
        assert "digits" in err

    def test_exceptional_exponent_beyond_digit_limit(self, write_doc):
        # each exponent has a 4300-digit denominator; their sum, the
        # exponent of the blown-up origin, has about 12900
        doc = json.loads(json.dumps(CONCURRENT3))
        doc["beta"] = [f"1/{10**4299 + k}" for k in (1, 3, 7)]
        code, out, err = execute(["pullback", "--input", write_doc(doc)])
        assert code == 2 and out == ""
        assert err.startswith("arrdmod: ") and err.count("\n") == 1
        assert "digits" in err

    def test_deeply_nested_json(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, out, err = execute(["classify", "--input", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("arrdmod: malformed JSON") and err.count("\n") == 1

    def test_non_utf8_input(self, tmp_path):
        path = tmp_path / "bytes.json"
        path.write_bytes(b"\xff")
        code, out, err = execute(["classify", "--input", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("arrdmod: ") and err.count("\n") == 1
        assert "UTF-8" in err

    def test_unwritable_dot_is_io_error(self, write_doc, tmp_path):
        code, out, err = execute(
            [
                "flats",
                "--input",
                write_doc(TRIANGLE),
                "--dot",
                str(tmp_path / "missing_dir" / "out.dot"),
            ]
        )
        assert code == 1


class TestStability:
    def test_parse_failure_leaves_later_calls_alone(self, write_doc, tmp_path):
        # the parser is built once per process and shared between calls, so
        # options of a refused argv must not reach the next one
        path = write_doc(TRIANGLE)
        dot = tmp_path / "out.dot"
        code, out, err = execute(
            ["flats", "--input", path, "--dot", str(dot), "--format", "xml"]
        )
        assert code == 2 and out == "" and "xml" in err
        code, out, err = execute(["flats", "--input", path])
        assert (code, err) == (0, "")
        assert out.startswith("7 flats:") and "DOT" not in out
        assert not dot.exists()

    def test_json_reports_byte_identical(self, write_doc):
        path = write_doc(TRIANGLE)
        first = execute(["factors", "--input", path, "--format", "json"])
        second = execute(["factors", "--input", path, "--format", "json"])
        assert first == second

    def test_json_mode_emits_single_object(self, write_doc):
        code, out, err = execute(
            ["verdict", "--input", write_doc(CONCURRENT3), "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["command"] == "verdict"

    def test_round_trip(self):
        doc = parse_input(
            {
                "dim": 2,
                "hyperplanes": [
                    {"coeffs": ["2", "-4"], "constant": "6"},
                    {"coeffs": ["0", "1/3"], "constant": "0"},
                ],
                "beta": ["4/2", "-1/3"],
                "resolution": {"multiplicities": [["1", "1"]]},
            }
        )
        assert parse_input(doc.render()) == doc
        # canonicalization happened: coprime integer coefficients
        rendered = doc.render()
        assert rendered["hyperplanes"][0] == {
            "coeffs": ["1", "-2"],
            "constant": "3",
        }
        assert rendered["beta"] == ["2", "-1/3"]

    def test_unknown_fields_rejected(self):
        from arrdmod import ValidationError

        with pytest.raises(ValidationError, match="unknown"):
            parse_input({"dim": 2, "hyperplanes": [], "bogus": 1})

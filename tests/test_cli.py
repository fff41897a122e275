import cmath
import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxmod.cli import agreement_verdict, main
from maxmod.classify import classify
from maxmod.poly import parse_poly
from maxmod.util import canonical_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassifyCommand:
    def test_magic_cubic_json(self, capsys):
        code, out, _ = run(capsys, "classify", "--poly", "1,0,1,1i")
        assert code == 0
        doc = json.loads(out)
        assert doc["exceptional"] is True
        assert doc["magic"] == "MAGIC"
        assert doc["mu"] == 1
        assert doc["conjecture_count"] == 2

    def test_two_term(self, capsys):
        code, out, _ = run(capsys, "classify", "--poly", "1,0,1")
        doc = json.loads(out)
        assert code == 0 and doc["mu"] == 2 and doc["predicted_count"] == 2
        # finite coefficients whose survivor weight 2|b| overflows to inf
        code, out, _ = run(capsys, "classify", "--poly", "1,1e308,1e308")
        doc = json.loads(out)
        assert code == 0 and doc["mu"] == 1 and doc["magic"] == "NOT_MAGIC"

    def test_round_trip_bytes(self, capsys):
        _, out, _ = run(capsys, "classify", "--poly", "1,0,1,1i")
        text = out.strip()
        assert canonical_json(json.loads(text)) == text

    def test_zero_exit_2(self, capsys):
        code, _, err = run(capsys, "classify", "--poly", "0")
        assert code == 2 and "ZeroPolynomial" in err

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "classify", "--poly", "1,0,bogus")
        assert code == 2 and "bogus" in err and "position 2" in err

    def test_monomial_exit_3(self, capsys):
        code, _, err = run(capsys, "classify", "--poly", "0,0,3")
        assert code == 3 and "MonomialAllPlane" in err

    def test_poly_file(self, capsys, tmp_path):
        f = tmp_path / "p.json"
        f.write_text('{"coeffs": [[1,0],[0,0],[1,0],[0,1]]}')
        code, out, _ = run(capsys, "classify", "--poly-file", str(f))
        assert code == 0 and json.loads(out)["magic"] == "MAGIC"


class TestTraceCommand:
    def test_magic_cubic_confirmed(self, capsys, tmp_path):
        csv = tmp_path / "a.csv"
        svg = tmp_path / "a.svg"
        code, out, _ = run(
            capsys,
            "trace",
            "--poly",
            "1,0,1,1i",
            "--rmin",
            "1e-3",
            "--rmax",
            "0.3",
            "--radii",
            "80",
            "--csv",
            str(csv),
            "--svg",
            str(svg),
            "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["agreement"] == "CONFIRMED"
        assert doc["trace"]["n_components"] == 2
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "r,theta,re,im,mod,curve_id"
        assert len(lines) == 1 + 2 * 80
        svg_text = svg.read_text()
        assert svg_text.count("<path") == doc["trace"]["n_components"]

    def test_floor_violation_exit_5(self, capsys):
        code, _, err = run(capsys, "trace", "--poly", "1,0,1,1i", "--rmin", "1e-9")
        assert code == 5 and "minimum admissible" in err

    @pytest.mark.parametrize("poly", ["1,1e200,1e200", "1,1e308,1e308"])
    def test_huge_coefficients_exit_5(self, capsys, poly):
        # the squared coefficient mass is beyond the float range; the floor is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "trace", "--poly", poly)
        assert code == 5 and err.startswith("error[FloorViolation]")

    def test_negligible_top_coefficient_exit_4(self, capsys):
        # n C_n of the z^3 term underflows against the rest; the root solve
        # drops that order instead of dividing by it, and the tie of the two
        # z^2 maxima stays visible as a discrepancy
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, "trace", "--poly", "1,0,1,1e-300")
        assert code == 4 and not err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_coarse_grid_traces(self, capsys):
        # --grid sets only the linking floor; the critical points do not
        # depend on it
        code, out, _ = run(
            capsys,
            "trace",
            "--poly=1,1,1i,1,-1,1i,0.5,1,2",
            "--grid",
            "64",
            "--rmax",
            "0.9",
            "--radii",
            "50",
            "--json",
        )
        assert code == 0
        assert json.loads(out)["trace"]["n_components"] == 1

    def test_phantom_discrepancy_exit_4(self, capsys):
        # below the ambiguity radius of the weak odd separator the count is
        # inflated and disagrees with the proven value
        code, out, _ = run(
            capsys,
            "trace",
            "--poly",
            "1,0,1,0,0,0.5",
            "--rmin",
            "5e-5",
            "--rmax",
            "0.3",
            "--radii",
            "100",
            "--json",
        )
        assert code == 4
        assert json.loads(out)["agreement"] == "DISCREPANT"

    def test_infinity_mode(self, capsys):
        code, out, _ = run(
            capsys,
            "trace",
            "--poly",
            "1i,1,0,1",
            "--rmin",
            "1e-3",
            "--rmax",
            "0.2",
            "--radii",
            "60",
            "--infinity",
            "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["trace"]["inverted"] is True
        assert doc["trace"]["n_components"] == 2

    @pytest.mark.parametrize(
        "argv,content",
        [
            (("trace", "--poly", "1,0,1,1i", "--rmin", "0.5", "--rmax", "0.3"), None),
            (("trace", "--poly", "1,0,1,1i", "--grid", "10"), None),
            (("trace", "--poly", "1,0,1,1i", "--grid", "131072"), None),
            (("trace", "--poly", "1,0,1,1i", "--radii", "1"), None),
            (("trace", "--poly-file", "{file}"), b'{"coeffs": [[1,0],[0,'),
            (("trace", "--poly-file", "{file}"), b'{"coeffs": 5}'),
            (("trace", "--poly-file", "{file}"), b'{"coeffs": [["a",1],[1,0]]}'),
            (("trace", "--poly-file", "{file}"), b'{"coeffs": [[null,0],[1,0]]}'),
            (("trace", "--poly-file", "{file}"), b'{"coeffs": [[{"a":1},0]]}'),
            (("trace", "--poly-file", "{file}"), b"\xff\xfe\x00"),
            (("trace", "--poly-file", "{file}"), b'{"coeffs": [[1,0],[1' + b"0" * 400 + b',0]]}'),
            (("trace", "--poly-file", "{file}"), b'{"coeffs": [[1,0],[1' + b"0" * 5000 + b',0]]}'),
            (("classify", "--poly", "1,1e999"), None),
            (("classify", "--poly-file", "{file}"), b'{"coeffs": [[1,0],[NaN,0]]}'),
            (("classify", "--poly-file", "{file}"), b'{"coeffs": [[1e999,0],[1,0]]}'),
            (("classify", "--poly", "1e-300,1e200"), None),
            (("trace", "--poly", "1e200,0,1e-300"), None),
            (("hunt", "--family", "cubic", "--samples", "1", "--out", "{file}", "--poly", "1,2"), None),
            (("hunt", "--family", "cubic", "--samples", "1", "--out", "{file}", "--json"), None),
        ],
        ids=[
            "rmin-above-rmax",
            "grid",
            "grid-above-max",
            "radii",
            "truncated-json",
            "coeffs-not-array",
            "coeff-string",
            "coeff-null",
            "coeff-object",
            "not-utf8",
            "coeff-int-overflow",
            "coeff-int-too-long",
            "poly-inf",
            "json-nan",
            "json-inf",
            "ratio-overflow",
            "ratio-underflow",
            "hunt-poly",
            "hunt-json",
        ],
    )
    def test_bad_input_exit_2(self, capsys, tmp_path, argv, content):
        f = tmp_path / "p.json"
        if content is not None:
            f.write_bytes(content)
        try:
            code, _, err = run(capsys, *(a.replace("{file}", str(f)) for a in argv))
        except SystemExit as ex:  # argparse rejects an unknown option itself
            code, err = ex.code, capsys.readouterr().err
        assert code == 2 and (err.startswith("error[") or "error: unrecognized arguments" in err)

    def test_report_round_trip(self, capsys):
        _, out, _ = run(
            capsys, "trace", "--poly", "1,0,1", "--radii", "30", "--rmin", "1e-2", "--json"
        )
        text = out.strip()
        assert canonical_json(json.loads(text)) == text


# every exit code documented in the cli module docstring
EXIT_CODES = {0, 1, 2, 3, 4, 5, 6}
MAGNITUDES = (0.0, 1e-300, 1e-8, 1.0, 1e8, 1e200, 1e308)
coefficients = st.lists(
    st.builds(cmath.rect, st.sampled_from(MAGNITUDES), st.floats(-math.pi, math.pi)),
    min_size=1,
    max_size=7,
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["classify", "trace"]), coefficients)
def test_cli_ends_in_documented_exit_code(command, coeffs):
    poly = ",".join(f"{c.real!r}{c.imag:+}i" for c in coeffs)
    argv = [command, f"--poly={poly}"] + (["--radii", "16"] if command == "trace" else [])
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in EXIT_CODES
    assert "Traceback" not in err.getvalue()


class TestHuntCommand:
    def test_deterministic_and_consistent(self, capsys, tmp_path):
        out1 = tmp_path / "f1.jsonl"
        out2 = tmp_path / "f2.jsonl"
        for out in (out1, out2):
            code, _, _ = run(
                capsys,
                "hunt",
                "--family",
                "cubic",
                "--samples",
                "12",
                "--seed",
                "7",
                "--out",
                str(out),
                "--quiet",
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        records = [json.loads(line) for line in out1.read_text().splitlines()]
        assert len(records) == 12
        on_locus = [r for r in records if r["on_locus"]]
        assert len(on_locus) == 6
        for rec in on_locus:
            assert rec["exceptional"] and rec["magic"] == "MAGIC"
            assert rec["n_components"] == 2
            assert rec["conjecture_holds"] is True
        for rec in records:
            if not rec["exceptional"]:
                assert rec["n_components"] is None
                assert rec["conjecture_holds"] is None

    def test_quartic_family_runs(self, capsys, tmp_path):
        out = tmp_path / "q.jsonl"
        code, _, _ = run(
            capsys,
            "hunt",
            "--family",
            "quartic",
            "--samples",
            "8",
            "--seed",
            "3",
            "--out",
            str(out),
            "--quiet",
        )
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 8
        for rec in records:
            if rec["exceptional"]:
                assert rec["conjecture_holds"] is True

    def test_io_failure_exit_6(self, capsys):
        code, _, err = run(
            capsys,
            "hunt",
            "--family",
            "cubic",
            "--samples",
            "1",
            "--seed",
            "1",
            "--out",
            "/nonexistent-dir/f.jsonl",
        )
        assert code == 6


class TestAgreementVerdict:
    def test_rules(self):
        c_min = classify(parse_poly("1,0,1,1"))  # non-exceptional, mu=1
        assert agreement_verdict(c_min, 1) == "CONFIRMED"
        assert agreement_verdict(c_min, 2) == "DISCREPANT"
        c_mag = classify(parse_poly("1,0,1,1i"))  # magic, mu=1
        assert agreement_verdict(c_mag, 2) == "CONFIRMED"
        assert agreement_verdict(c_mag, 1) == "DISCREPANT"
        c_unk = classify(parse_poly("1,0,0,0,1,0,1"))  # exceptional, UNKNOWN, mu=2
        assert agreement_verdict(c_unk, 2) == "CONFIRMED"
        assert agreement_verdict(c_unk, 4) == "CONJECTURE_CONSISTENT"
        assert agreement_verdict(c_unk, 3) == "DISCREPANT"

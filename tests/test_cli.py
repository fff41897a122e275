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

    @pytest.mark.parametrize(
        "poly,reference,factor",
        [
            ("1e200,1e200,1e200", "1,1,1", 1e200),
            ("0,1e-300,1e-300", "0,1,1", 1e-300),
            ("1e308,1.5e308+1.5e308i", "1,1.5+1.5i", 1e308),
        ],
    )
    def test_extreme_magnitudes_trace(self, capsys, tmp_path, poly, reference, factor):
        # |p|^2 is outside the float range but p is not: the trace is that of
        # the reference, and the CSV moduli are scaled by the factor
        docs, rows = [], []
        for i, text in enumerate((poly, reference)):
            csv = tmp_path / f"{i}.csv"
            code, out, err = run(capsys, "trace", f"--poly={text}", "--json", "--csv", str(csv))
            assert code == 0 and not err
            docs.append(json.loads(out)["trace"])
            rows.append([line.split(",") for line in csv.read_text().splitlines()[1:]])
        assert docs[0]["n_components"] == docs[1]["n_components"]
        assert len(rows[0]) == len(rows[1])
        for a, b in zip(*rows):
            assert a[:4] + a[5:] == b[:4] + b[5:]
            assert math.isfinite(float(a[4]))
            assert float(a[4]) == pytest.approx(factor * float(b[4]), rel=1e-14)

    def test_modulus_beyond_float_range_is_inf(self, capsys, tmp_path):
        # near |z| = 0.9, |p| exceeds the largest float: those samples carry
        # an infinite modulus, the others a finite one
        csv = tmp_path / "p.csv"
        code, _, err = run(
            capsys, "trace", "--poly=1e308,1e308,1e308", "--rmax", "0.9", "--csv", str(csv)
        )
        assert code == 0 and not err
        mods = [float(line.split(",")[4]) for line in csv.read_text().splitlines()[1:]]
        assert math.inf in mods and math.isfinite(min(mods))

    def test_tiny_coefficient_at_huge_radii(self, capsys):
        # under z -> 1e300 z this is 1 + z on [1e-9, 1]: r^j leaves the float
        # range and |c_j|^2 underflows, but no term of |p|^2 does
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "trace", "--poly", "1,1e-300", "--rmin", "1e291", "--rmax", "1e300",
                "--radii", "8",
            )
        assert code == 0 and not err and "CONFIRMED" in out

    @pytest.mark.parametrize("rmax", ["1e60", "1e308"])
    def test_radius_far_beyond_one_fails_cleanly(self, capsys, rmax):
        # |1 + q|^2 or the C_n of the root solve leave the float range: a
        # refinement failure, not an overflow warning
        code, _, err = run(capsys, "trace", "--poly", "1,0,1,1i", "--rmax", rmax, "--radii", "4")
        assert code == 1 and err.startswith("error[RefinementFailure]")

    def test_coarse_grid_traces(self, capsys):
        # --grid has no effect on the trace: a coarse value traces like the
        # default
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

    def test_monomial_at_infinity_exit_3(self, capsys):
        code, _, err = run(capsys, "trace", "--infinity", "--poly", "0,0,3")
        assert code == 3 and "MonomialAllPlane" in err

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
            (("hunt", "--family", "cubic", "--samples", "1", "--out", "{file}", "--seed", "-1"), None),
            (("trace", "--poly", "1,0,1,1i", "--rmax", "inf"), None),
            (("trace", "--poly", "1,0,1,1i", "--grid=--"), None),
            (("trace", "--poly", "1,0,1,1i", "--radii", "100001"), None),
            (("hunt", "--family", "cubic", "--samples", "100001", "--out", "{file}"), None),
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
            "hunt-negative-seed",
            "rmax-inf",
            "option-double-dash",
            "radii-above-max",
            "hunt-samples-above-max",
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
        argparse_errors = ("error: unrecognized arguments", "expected one argument")
        assert code == 2 and (err.startswith("error[") or any(e in err for e in argparse_errors))

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


PATHS = st.sampled_from(["{tmp}/p.json", "{tmp}/out", "{tmp}", "{tmp}/missing/f", ""])
NUMBERS = st.sampled_from(["0", "-1", "1e-3", "0.3", "0.9", "2", "1e308", "nan", "inf", "-inf"])
JUNK = st.sampled_from(["", "x", "--", "1,0,1", "0x10", "1e", "\u00e9"])
OPTION_VALUES = {
    "--poly": st.sampled_from(["1,0,1,1i", "1,0,1", "0,0,3", "0", "1,nan", "1,bogus"]) | JUNK,
    "--poly-file": PATHS,
    "--rmin": NUMBERS | JUNK,
    "--rmax": NUMBERS | JUNK,
    "--radii": st.sampled_from(["2", "16", "32", "1", "0", "-3", "1000000000"]) | JUNK,
    "--grid": st.sampled_from(["64", "4096", "65536", "63", "65537", "0"]) | JUNK,
    "--csv": PATHS,
    "--svg": PATHS,
    "--out": PATHS,
    "--family": st.sampled_from(["cubic", "quartic"]) | JUNK,
    "--samples": st.sampled_from(["0", "1", "2", "-1", "1000000000"]) | JUNK,
    "--seed": st.sampled_from(["0", "3", "-1", "-99999999999999999999", str(2**70)]) | JUNK,
}
SWITCHES = ("--json", "--quiet", "--truncated", "--infinity", "--bogus", "-q")


def _option(flag):
    value = OPTION_VALUES[flag]
    return value.map(lambda v: [flag, v]) | value.map(lambda v: [f"{flag}={v}"])


tokens = st.lists(
    st.sampled_from(SWITCHES).map(lambda f: [f])
    | st.sampled_from(sorted(OPTION_VALUES)).flatmap(_option),
    max_size=6,
)
# small defaults that the drawn options may repeat and so override
COMMAND_PREFIX = {
    "classify": ["--poly=1,0,1,1i"],
    "trace": ["--poly=1,0,1,1i", "--radii", "16"],
    "hunt": ["--family", "cubic", "--samples", "1", "--out", "{tmp}/out"],
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(COMMAND_PREFIX)), tokens)
def test_cli_options_end_in_documented_exit_code(tmp_path_factory, command, drawn):
    tmp = tmp_path_factory.getbasetemp() / "cli-fuzz"
    tmp.mkdir(exist_ok=True)
    (tmp / "p.json").write_text('{"coeffs": [[1,0],[0,0],[1,0],[0,1]]}')
    argv = [command] + COMMAND_PREFIX[command] + [t for pair in drawn for t in pair]
    argv = [a.replace("{tmp}", str(tmp)) for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as ex:  # argparse rejects the command line itself
            code = ex.code
            assert code == 2, argv
    assert code in EXIT_CODES, argv
    assert "Traceback" not in err.getvalue(), argv


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

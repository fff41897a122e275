import cmath
import contextlib
import functools
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxmod
from maxmod.cli import agreement_verdict, main
from maxmod.classify import classify
from maxmod.poly import parse_poly
from maxmod.util import canonical_json


CLASSIFY_KEYS = {
    "mu",
    "N",
    "omega",
    "exceptional",
    "witnesses",
    "magic",
    "predicted_count",
    "conjecture_count",
    "warnings",
}


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

    @pytest.mark.parametrize("poly,flipped", [("1,0,-1", "-1,0,1"), ("2,0,0,-1", "-2,0,0,1")])
    def test_sign_flip_same_json(self, capsys, poly, flipped):
        # p and -p have one maximum modulus set and one classification,
        # omega in the same order
        _, out, _ = run(capsys, "classify", f"--poly={poly}", "--json")
        _, out_flipped, _ = run(capsys, "classify", f"--poly={flipped}", "--json")
        assert out == out_flipped
        assert json.loads(out)["omega"][0] < 0

    def test_round_trip_bytes(self, capsys):
        _, out, _ = run(capsys, "classify", "--poly", "1,0,1,1i")
        text = out.strip()
        assert canonical_json(json.loads(text)) == text

    def test_json_key_set(self, capsys):
        _, out, _ = run(capsys, "classify", "--poly", "1,0,1,1i", "--json")
        doc = json.loads(out)
        assert set(doc) == CLASSIFY_KEYS
        assert [set(w) for w in doc["witnesses"]] == [{"m", "m_prime", "sigma", "residual"}]

    def test_no_poly_exit_2(self, capsys):
        code, out, err = run(capsys, "classify")
        assert code == 2 and not out
        assert err.startswith("error[ParseError]") and "provide --poly or --poly-file" in err

    @pytest.mark.parametrize("command", ["classify", "trace"])
    def test_poly_and_poly_file_exit_2(self, capsys, tmp_path, command):
        # the file was ignored before, even a missing one
        (tmp_path / "p.json").write_text('{"coeffs": [[1,0],[1,0]]}')
        for name in ("missing.json", "p.json"):
            code, out, err = run(capsys, command, "--poly", "1,1", "--poly-file", str(tmp_path / name))
            assert code == 2 and not out
            assert err.startswith("error[Config]") and "not both" in err

    def test_poly_file_entry_not_a_pair_exit_2(self, capsys, tmp_path):
        f = tmp_path / "p.json"
        f.write_text('{"coeffs": [[1]]}')
        code, _, err = run(capsys, "classify", "--poly-file", str(f))
        assert code == 2
        assert err.startswith("error[ParseError]") and "expected a [re, im] pair" in err

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

    @pytest.mark.parametrize(
        "poly",
        ["1,0,1,1i", "1,0,-0.8300660225374361+1.2693990778175988i,-0.04656710453432083+0.5579051013880815i"],
        ids=["magic-cubic", "hunted-prefix"],
    )
    def test_truncated_exceptional_cubic_is_unknown_json(self, capsys, poly):
        # a magic cubic read as the prefix of a series: its resonance still
        # holds, its magic is left open and no doubled count is conjectured
        code, out, _ = run(capsys, "classify", "--truncated", "--poly", poly, "--json")
        doc = json.loads(out)
        assert code == 0 and doc["exceptional"] is True
        assert doc["magic"] == "UNKNOWN" and doc["conjecture_count"] is None
        assert doc["warnings"] == ["truncated series: exact only if the omitted terms lie above the core degree"]
        _, out, _ = run(capsys, "classify", "--poly", poly, "--json")
        assert json.loads(out) == {**doc, "magic": "MAGIC", "conjecture_count": 2, "warnings": []}


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

    def test_huge_complex_lead(self, capsys, tmp_path):
        # |lead|^2 overflows inside complex division although every ratio
        # c_j / c_0 is a float (0.5-0.5i here): normalize scales before it
        # divides.  |p| is beyond the float range on every traced circle, so
        # the CSV carries inf, without an overflow warning
        csv = tmp_path / "p.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "classify", "--poly=1e308+1e308i,1e308,1")
            assert code == 0 and not err and json.loads(out)["mu"] == 1
            code, _, err = run(capsys, "trace", "--poly=1.5e308+1.5e308i,1e308", "--csv", str(csv))
        assert code == 0 and not err
        mods = {line.split(",")[4] for line in csv.read_text().splitlines()[1:]}
        assert mods == {"inf"}

    def test_lead_monomial_at_huge_radii(self, capsys, tmp_path):
        # z (1 + 1e-300 z^2) on [2e150, 1e155]: |a_m|^2 r^{2m} is not a float
        # there, but the factor z moves no maximizer, and the scan runs on
        # the tail alone.  The samples are those of 1 + 1e-300 z^2, angle for
        # angle, with every modulus multiplied by r
        rows = []
        for i, poly in enumerate(("0,1,0,1e-300", "1,0,1e-300")):
            csv = tmp_path / f"{i}.csv"
            code, out, err = run(
                capsys, "trace", "--poly", poly, "--rmin", "2e150", "--rmax", "1e155",
                "--radii", "8", "--csv", str(csv),
            )
            assert code == 0 and not err and "CONFIRMED" in out
            rows.append([line.split(",") for line in csv.read_text().splitlines()[1:]])
        assert len(rows[0]) == len(rows[1]) > 0
        for a, b in zip(*rows):
            assert a[:2] + a[5:] == b[:2] + b[5:]
            assert float(a[4]) == pytest.approx(float(a[0]) * float(b[4]), rel=1e-15)

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

    def test_tiny_top_coefficient_at_huge_radii(self, capsys):
        # 1 + 1e-300 z^2 on [2e145, 1e150]: its only C_n, 1e-300 r^2, is
        # about 1, but r^3 of the radius powers is not a float, and the
        # product must not turn inf * 0 into NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "trace", "--poly", "1,0,1e-300", "--rmin", "2e145", "--rmax", "1e150",
                "--radii", "8",
            )
        assert code == 0 and not err and "CONFIRMED" in out

    def test_coefficient_product_overflow_fails_cleanly(self, capsys):
        # r_min is above the floor (2.1e75), but a product c_{j+n} conj(c_j)
        # of the expansion overflows: the mass check rejects the radii,
        # without an overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(
                capsys, "trace", "--poly", "1e-160,0,1,1", "--rmin", "1e81", "--rmax", "1e84",
                "--radii", "8",
            )
        assert code == 1 and err.startswith("error[RefinementFailure]")

    def test_json_key_sets(self, capsys):
        # one input with tangent and symmetry rows (mu = 2), one with an event
        rows = {"tangents": [], "symmetry": [], "events": []}
        for argv in (
            ("--poly", "1,0,1,0,0.3+0.2i"),
            ("--poly", "1,0,1,0,0,0.5", "--rmin", "5e-5", "--radii", "100"),
        ):
            _, out, _ = run(capsys, "trace", *argv, "--json")
            doc = json.loads(out)
            assert set(doc) == {"poly", "coeffs", "classification", "trace", "agreement", "artifacts"}
            assert set(doc["classification"]) == CLASSIFY_KEYS
            assert set(doc["artifacts"]) == {"csv", "svg"}
            assert set(doc["trace"]) == {
                "n_components",
                "stable_radius",
                "r_min",
                "r_max",
                "n_radii",
                "inverted",
                "tangents",
                "symmetry",
                "events",
            }
            for key, val in rows.items():
                val += doc["trace"][key]
        tangent_keys = {
            "curve_id",
            "omega_hat",
            "alpha_hat",
            "on_ray",
            "matched_j",
            "matched_omega",
            "omega_error",
        }
        assert rows["tangents"] and all(set(t) == tangent_keys for t in rows["tangents"])
        symmetry_keys = {"curve_a", "curve_b", "rotation_m", "max_dev"}
        assert rows["symmetry"] and all(set(s) == symmetry_keys for s in rows["symmetry"])
        event_keys = {"kind", "r", "curve_id", "legitimate"}
        assert rows["events"] and all(set(e) == event_keys for e in rows["events"])

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

    def test_narrow_window_leaves_alpha_unresolved(self, capsys):
        # radii within 3% of each other cannot tell one power of r from the
        # next: the text names the exponent unresolved and --json gives null,
        # where the window used to report alpha=0.800 for the magic cubic's
        # alpha = 1; a window over a decade still reports it
        argv = ["trace", "--poly", "1,0,1,1i", "--rmin", "0.29", "--rmax", "0.3", "--radii", "50"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.count("(alpha unresolved)") == 2 and "alpha=" not in out
        code, out, _ = run(capsys, *argv, "--json")
        tangents = json.loads(out)["trace"]["tangents"]
        assert code == 0 and [t["alpha_hat"] for t in tangents] == [None, None]
        code, out, _ = run(capsys, "trace", "--poly", "1,0,1,1i", "--rmin", "0.001", "--radii", "200")
        assert code == 0 and out.count("(alpha=1.000)") == 2

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
            (("hunt", "--family", "cubic", "--samples", "-1", "--out", "{file}"), None),
            (("classify", "--poly", "1,1e-400"), None),
            (("classify", "--poly-file", "{file}"), b'{"coeffs": [[1,0],[1e-400,0]]}'),
            (("classify", "--poly-file", "{file}"), b'{"coeffs": [[1,0],[0,0],[1,0],[0,1]], "truncated": "false"}'),
            (("classify", "--poly-file", "{file}"), b'{"coeffs": [[1,0],[0,0],[1,0],[0,1]], "truncated": 1}'),
            (("classify", "--poly-file", "{file}"), b'{"coeffs": [[1,0],[0,0],[1,0],[0,1]], "truncated": [1]}'),
            (("classify", "--poly-file", "{file}"), b'{"coeffs": [[1,0],[0,0],[1,0],[0,1]], "truncated": null}'),
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
            "hunt-negative-samples",
            "coeff-underflow",
            "json-underflow",
            "truncated-string",
            "truncated-int",
            "truncated-array",
            "truncated-null",
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

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("trace", "--poly", "1,0,1,1i", "--rmin", "0"), "need 0 < r_min < r_max < inf"),
            (("trace", "--poly", "1,0,1,1i", "--radii", "1"), "need 2 <= n_radii <= 100000"),
            (("trace", "--poly", "1,0,1,1i", "--grid", "10"), "need 64 <= grid <= 65536"),
            (("hunt", "--family", "cubic", "--seed", "-1"), "need --seed >= 0, got -1"),
            (
                ("hunt", "--family", "cubic", "--samples", "100001"),
                "need --samples <= 100000, got 100001",
            ),
            (("hunt", "--family", "cubic", "--samples", "-1"), "need --samples >= 0, got -1"),
        ],
        ids=["rmin", "radii", "grid", "hunt-seed", "hunt-samples", "hunt-negative-samples"],
    )
    def test_config_error_text(self, capsys, tmp_path, argv, message):
        if argv[0] == "hunt":
            argv += ("--out", str(tmp_path / "h.jsonl"))
        assert run(capsys, *argv) == (2, "", f"error[Config]: {message}\n")
        assert not (tmp_path / "h.jsonl").exists()

    @pytest.mark.parametrize(
        "content,message",
        [
            (
                b'{"coeffs": [[1,0],[1e-400,0]]}',
                "cannot parse file '{file}': nonzero literal 1e-400 underflows to 0.0",
            ),
            (
                b'{"coeffs": [[1,0],[0,',
                "cannot parse file '{file}': invalid JSON at line 1, column 22: Expecting value",
            ),
            (
                b'{"coeffs": [[1,0],\n [1,0]\n x]}',
                "cannot parse file '{file}': invalid JSON at line 3, column 2: "
                "Expecting ',' delimiter",
            ),
            (
                json.dumps(list(range(3000))).encode(),
                'cannot parse the JSON document: expected an object with a "coeffs" array',
            ),
            (b'{"coeffs": 5}', 'cannot parse the JSON document: "coeffs" must be an array'),
            (None, "cannot parse the input: none given; provide --poly or --poly-file"),
            (
                b'{"coeffs": [[1,0],[1,0]], "truncated": "false"}',
                "cannot parse the \"truncated\" flag: expected true or false, got 'false'",
            ),
            (
                json.dumps({"coeffs": [list(range(3000))]}).encode(),
                "cannot parse coefficient '[0, 1, 2, 3, 4, 5, ...]' at position 0: "
                "expected a [re, im] pair",
            ),
        ],
        ids=[
            "json-underflow",
            "truncated-json",
            "json-line-column",
            "long-list",
            "coeffs-5",
            "none",
            "truncated-string",
            "long-pair",
        ],
    )
    def test_input_error_text(self, capsys, tmp_path, content, message):
        # an error of the whole input names the file or the JSON document,
        # never a coefficient position, and no error echoes a long document
        f = tmp_path / "p.json"
        argv = ("classify",)
        if content is not None:
            f.write_bytes(content)
            argv += ("--poly-file", str(f))
        assert run(capsys, *argv) == (2, "", f"error[ParseError]: {message.format(file=f)}\n")

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


class TestOneNormalFormPerInput:
    """Fixed work per input: a command normalizes each polynomial once and
    passes the form on, forms its candidate angles once, a trace or count
    builds one expansion and computes one floor, only a hunt's counted
    members read the survivors, through their ambiguity radius, and the
    checks of the ``Polynomial`` constructor run on the polynomials that
    enter the package, not on the tails that ``normalize`` builds."""

    @staticmethod
    def count_work(monkeypatch, argv) -> dict:
        """Run ``argv`` and count the normalizations of a polynomial (not
        the identity return on a normal form), the candidate-angle
        computations, the ``c_pairs`` builds, the floors computed, the
        ambiguity radii, the one survivor loop of the package, and the
        ``Polynomial.__post_init__`` calls, one per polynomial built by the
        generated constructor."""
        calls = {
            "normalize": 0,
            "omega": 0,
            "_c_pairs": 0,
            "floor_radius": 0,
            "ambiguity_radius": 0,
            "__post_init__": 0,
        }

        def counted(name, func, when=lambda *args: True):
            def wrapper(*args):
                calls[name] += when(*args)
                return func(*args)

            return wrapper

        normalize = maxmod.poly.normalize
        real = counted("normalize", normalize, lambda p: isinstance(p, maxmod.Polynomial))
        for module in (maxmod.cli, maxmod.tracer, sys.modules["maxmod.classify"]):
            monkeypatch.setattr(module, "normalize", real)
        omega = functools.cached_property(counted("omega", maxmod.HaymanForm.omega.func))
        omega.__set_name__(maxmod.HaymanForm, "omega")
        monkeypatch.setattr(maxmod.HaymanForm, "omega", omega)
        monkeypatch.setattr(maxmod.modulus, "_c_pairs", counted("_c_pairs", maxmod.modulus._c_pairs))
        monkeypatch.setattr(maxmod.poly, "floor_radius", counted("floor_radius", maxmod.poly.floor_radius))
        radius = counted("ambiguity_radius", maxmod.cli.ambiguity_radius)
        monkeypatch.setattr(maxmod.cli, "ambiguity_radius", radius)
        post_init = counted("__post_init__", maxmod.Polynomial.__post_init__)
        monkeypatch.setattr(maxmod.Polynomial, "__post_init__", post_init)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        return calls

    def test_cubic_hunt(self, monkeypatch, tmp_path):
        # 100 members, 50 of them exceptional and counted; each counted
        # member's floor sets its radii and checks them, computed once, and
        # its angles serve classify and the survivors of its radii.  A
        # Polynomial is constructed for each of the 100 sampled members and
        # for the tail of each counted member turned onto the real axis
        # (modulus.on_axis, 50); the 100 normalized tails are not
        argv = ["hunt", "--family", "cubic", "--samples", "100", "--seed", "20260809"]
        calls = self.count_work(monkeypatch, argv + ["--out", str(tmp_path / "h.jsonl")])
        assert calls == {
            "normalize": 100,
            "omega": 100,
            "_c_pairs": 50,
            "floor_radius": 50,
            "ambiguity_radius": 50,
            "__post_init__": 150,
        }

    @pytest.mark.parametrize("infinity", [[], ["--infinity"]], ids=["origin", "infinity"])
    def test_trace(self, monkeypatch, infinity):
        # the angles serve the classification and the tangent matches.  A
        # Polynomial is constructed for the parsed input, for its reciprocal
        # at infinity and for the tail turned onto the real axis
        # (modulus.on_axis); the normalized tail is not
        argv = ["trace", "--poly", "1,0,1,1i", "--radii", "20", "--json", *infinity]
        calls = self.count_work(monkeypatch, argv)
        assert calls == {
            "normalize": 1,
            "omega": 1,
            "_c_pairs": 1,
            "floor_radius": 1,
            "ambiguity_radius": 0,
            "__post_init__": 3 if infinity else 2,
        }


def test_commands_leave_numpy_ma_unimported(tmp_path):
    # no command needs numpy.ma, which takes 10-20 ms to import: trace with
    # every writer, both hunts and classify run in a fresh interpreter
    code = (
        "import sys\n"
        "from maxmod.cli import main\n"
        "codes = [\n"
        "    main(['trace', '--poly', '1,0,1,1i', '--json', '--csv', 't.csv', '--svg', 't.svg']),\n"
        "    main(['trace', '--infinity', '--poly', '1,0,1,1i', '--quiet']),\n"
        "    main(['hunt', '--family', 'cubic', '--samples', '8', '--out', 'h.jsonl']),\n"
        "    main(['hunt', '--family', 'quartic', '--samples', '40', '--out', 'q.jsonl']),\n"
        "    main(['classify', '--poly', '1,0,1,1i', '--json']),\n"
        "]\n"
        "assert codes == [0] * 5, codes\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    src = str(Path(maxmod.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, cwd=tmp_path, stdout=subprocess.DEVNULL)

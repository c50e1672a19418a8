import argparse
import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from affsel import cli
from affsel.cli import build_parser
from affsel.hyperplane import Instance
from affsel.instances import gen_meager_linear, save_instance_file
from affsel.numerics import PointSet
from conftest import subprocess_env

GOLDEN = Path(__file__).resolve().parent / "golden"
README = Path(__file__).resolve().parent.parent / "README.md"

WORKED = {
    "schema_version": 1,
    "n": 1,
    "X": ["x0"],
    "Y": [["-1"], ["2"]],
    "f": [["0", "1"]],
}


def run_cli(*args, cwd=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "affsel", *args],
        capture_output=True, text=True, env=subprocess_env(), cwd=cwd, timeout=timeout,
    )


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "worked.json"
    path.write_text(json.dumps(WORKED))
    return path


class TestGen:
    def test_gen_then_select_verify(self, tmp_path):
        out = tmp_path / "inst.json"
        res = run_cli("gen", "affine", "--seed", "3", "--n", "2", "--nx", "2",
                      "--ny", "4", "-o", str(out))
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["command"] == "gen-affine"
        assert out.exists()

        res2 = run_cli("select", "affine", str(out), "--verify", "--trace")
        assert res2.returncode == 0, res2.stderr
        rep2 = json.loads(res2.stdout)
        assert rep2["verification"]["passed"] is True
        assert rep2["trace_summary"]["levels"][0]["dim"] == 2

    def test_gen_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("gen", "meager", "--seed", "5", "--n", "1", "--nx", "2", "--ny", "3",
                "-o", str(a))
        run_cli("gen", "meager", "--seed", "5", "--n", "1", "--nx", "2", "--ny", "3",
                "-o", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestSelectAffine:
    def test_worked_instance_report(self, worked_file):
        res = run_cli("select", "affine", str(worked_file), "--verify")
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["selector"]["B"] == [["1/2"]]
        assert report["selector"]["C"] == ["1"]
        assert report["verification"]["min_slack"]["x0"] == "1/2"

    def test_selector_output_then_verify(self, worked_file, tmp_path):
        sel_path = tmp_path / "sel.json"
        run_cli("select", "affine", str(worked_file), "-o", str(sel_path))
        res = run_cli("verify", str(worked_file), str(sel_path), "--kind", "affine")
        assert res.returncode == 0
        assert json.loads(res.stdout)["verification"]["passed"] is True

    def test_tampered_selector_exit_2(self, worked_file, tmp_path):
        sel_path = tmp_path / "sel.json"
        run_cli("select", "affine", str(worked_file), "-o", str(sel_path))
        data = json.loads(sel_path.read_text())
        data["C"] = ["0"]   # decrease the constant by one
        sel_path.write_text(json.dumps(data))
        res = run_cli("verify", str(worked_file), str(sel_path), "--kind", "affine")
        assert res.returncode == 2
        report = json.loads(res.stdout)
        assert report["verification"]["passed"] is False
        assert any(f["slack"].startswith("-") for f in report["verification"]["failures"])

    def test_json_numbers_read_as_decimals(self, worked_file, tmp_path):
        # 0.1 is 1/10, as in instance files, not the nearest binary double
        reports = []
        for b in (0.1, "1/10"):
            sel_path = tmp_path / "sel.json"
            sel_path.write_text(json.dumps({"kind": "affine", "n": 1, "X": ["x0"],
                                            "B": [[b]], "C": [1]}))
            res = run_cli("verify", str(worked_file), str(sel_path), "--kind", "affine")
            assert res.returncode == 0, res.stderr
            report = json.loads(res.stdout)
            del report["wall_time_s"]
            reports.append(report)
        assert reports[0] == reports[1]
        assert reports[0]["verification"]["min_slack"]["x0"] == "1/5"

    def test_report_embeds_selector_for_verify(self, worked_file, tmp_path):
        report_path = tmp_path / "report.json"
        res = run_cli("select", "affine", str(worked_file))
        report_path.write_text(res.stdout)
        res2 = run_cli("verify", str(worked_file), str(report_path), "--kind", "affine")
        assert res2.returncode == 0


class TestSelectLinear:
    def test_positive_origin_exact_false_exit_zero(self, tmp_path):
        inst = {"schema_version": 1, "n": 1, "X": ["x0"],
                "Y": [["0"], ["1"]], "f": [["1", "0"]]}
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(inst))
        res = run_cli("select", "linear", str(path), "--lambda-max", "2^4",
                      "--doublings", "1", "--verify")
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["selector"]["exact"] == [False]
        assert report["verification"]["passed"] is True
        assert all(att["exact"] == [False] for att in report["selector"]["attempts"])

    @pytest.mark.parametrize("pipeline, extra", [("linear", ("--doublings", "2")),
                                                 ("feature", ())])
    def test_lambda_max_one(self, tmp_path, pipeline, extra):
        # the first attempt lifts onto the single rung 1
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(dict(WORKED, phi=[["-1", "1"], ["2", "1"]])))
        res = run_cli("select", pipeline, str(path), "--lambda-max", "1", *extra, "--verify")
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["verification"]["passed"] is True
        assert report["selector"]["attempts"][0]["lambda_max"] == 1

    def test_lambda_caret_syntax(self, worked_file):
        res = run_cli("select", "linear", str(worked_file), "--lambda-max", "2^6",
                      "--doublings", "0")
        assert res.returncode == 0
        assert json.loads(res.stdout)["selector"]["lambda_max"] == 64


@pytest.fixture
def meager_file(tmp_path):
    """`gen meager --seed 1 --n 1 --nx 2 --ny 3`, with the identity as phi."""
    doc = gen_meager_linear(1, 1, 2, 3)
    doc.phi_rows = doc.y_rows
    path = tmp_path / "meager.json"
    save_instance_file(doc, path)
    return path


# `select subgradient` takes no ladder and no --backend: there the flags
# themselves are the usage error
LADDER_PIPELINES = (("linear",), ("feature",), ("subgradient",),
                    ("subgradient", "--backend", "cone"))


class TestLadderBound:
    """lambda_max * 2^doublings, the largest rung the retries reach, has at
    most 4300 digits, or the command stops before any work."""

    @pytest.mark.parametrize("pipeline", LADDER_PIPELINES)
    @pytest.mark.parametrize("lambda_max, doublings", [("10^5000", "0"), ("2^20", "14400"),
                                                       ("2^14285", "0"), ("1" * 4301, "0")])
    def test_past_the_digit_limit_is_a_usage_error(self, meager_file, capsys, pipeline,
                                                   lambda_max, doublings):
        flags = [*pipeline[1:], "--lambda-max", lambda_max, "--doublings", doublings]
        code = cli.run(["select", pipeline[0], str(meager_file), *flags])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        if pipeline[0] == "subgradient":
            assert err.startswith(f"usage error: unrecognized arguments: {' '.join(flags)}; ")
        else:
            assert err.startswith("usage error: --lambda-max ")
            assert "exceeds the limit of 4300 digits" in err
        assert len(err.splitlines()) == 1

    def test_largest_rung_within_the_limit_still_selects(self, meager_file, capsys):
        assert cli.run(["select", "linear", str(meager_file), "--lambda-max", "2^14000",
                        "--doublings", "2", "--verify"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verification"]["passed"] is True
        assert report["selector"]["attempts"][0]["lambda_max"] == 2 ** 14000


def test_a_result_past_the_digit_limit_exits_1_with_one_line(tmp_path, capsys):
    # both values are readable; their midpoint has about 8,600 digits
    big = 10 ** 4299
    u, l = tmp_path / "u.json", tmp_path / "l.json"
    u.write_text(json.dumps({"X": ["a"], "values": [f"1/{big + 3}"]}))
    l.write_text(json.dumps({"X": ["a"], "values": [f"1/{big + 1}"]}))
    assert cli.run(["sandwich", str(u), str(l)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: output too large: a value has more digits than Python's "
                   "int-to-str limit\n")


class TestSelectSubgradientAndFeature:
    def test_subgradient_shift(self, tmp_path):
        gen_out = tmp_path / "conv.json"
        run_cli("gen", "convex", "--seed", "2", "--n", "1", "--nx", "2", "--ny", "4",
                "--k", "2", "--shifted", "-o", str(gen_out))
        res = run_cli("select", "subgradient", str(gen_out), "--shift", "--verify")
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["verification"]["passed"] is True
        assert report["selector"]["epsilon"] == ["0"] * 2

    def test_feature_requires_phi(self, worked_file):
        res = run_cli("select", "feature", str(worked_file))
        assert res.returncode == 1
        assert "phi" in res.stderr

    def test_feature_with_phi(self, tmp_path):
        inst = dict(WORKED)
        inst["phi"] = [["-1", "1"], ["2", "1"]]
        path = tmp_path / "feat.json"
        path.write_text(json.dumps(inst))
        res = run_cli("select", "feature", str(path), "--lambda-max", "2^5",
                      "--doublings", "0", "--verify")
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["verification"]["passed"] is True


class TestSandwichCommand:
    def test_midpoint(self, tmp_path):
        u = tmp_path / "u.json"
        l = tmp_path / "l.json"
        u.write_text(json.dumps({"X": ["a"], "values": ["0"]}))
        l.write_text(json.dumps({"X": ["a"], "values": ["1"]}))
        res = run_cli("sandwich", str(u), str(l))
        assert res.returncode == 0
        assert json.loads(res.stdout)["result"]["values"] == ["1/2"]

    def test_staged(self, tmp_path):
        u = tmp_path / "u.json"
        l = tmp_path / "l.json"
        u.write_text(json.dumps({"X": ["a"], "values": ["3/10"]}))
        l.write_text(json.dumps({"X": ["a"], "values": ["2/5"]}))
        res = run_cli("sandwich", str(u), str(l), "--mode", "staged")
        assert json.loads(res.stdout)["result"]["values"] == ["3/10"]

    def test_sandwich_bracket_violation_exit_1(self, tmp_path):
        u = tmp_path / "u.json"
        l = tmp_path / "l.json"
        u.write_text(json.dumps({"X": ["a"], "values": ["2"]}))
        l.write_text(json.dumps({"X": ["a"], "values": ["1"]}))
        res = run_cli("sandwich", str(u), str(l))
        assert res.returncode == 1
        assert "bracket" in res.stderr


class TestErrors:
    def test_unknown_flag_exit_1_usage_on_stderr(self, worked_file):
        res = run_cli("select", "affine", str(worked_file), "--bogus")
        assert res.returncode == 1
        assert res.stdout == ""
        assert "usage" in res.stderr.lower()

    def test_missing_file_exit_1(self):
        res = run_cli("select", "affine", "/nonexistent/inst.json")
        assert res.returncode == 1

    def test_bad_json_exit_1(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        res = run_cli("select", "affine", str(path))
        assert res.returncode == 1


class TestConvexityFlag:
    def test_check_convexity_pass(self, tmp_path):
        out = tmp_path / "conv.json"
        run_cli("gen", "convex", "--seed", "8", "--n", "1", "--nx", "1", "--ny", "5",
                "--k", "3", "-o", str(out))
        res = run_cli("select", "subgradient", str(out), "--check-convexity")
        assert res.returncode == 0, res.stderr

    def test_check_convexity_violation_exit_1(self, tmp_path):
        inst = {"schema_version": 1, "n": 1, "X": ["x0"],
                "Y": [["-1"], ["0"], ["1"]], "f": [["0", "0", "-5"]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(inst))
        res = run_cli("select", "subgradient", str(path), "--check-convexity")
        assert res.returncode == 1
        assert "convexity" in res.stderr


def test_verify_kind_mismatch_exit_1(worked_file, tmp_path):
    sel_path = tmp_path / "sel.json"
    run_cli("select", "affine", str(worked_file), "-o", str(sel_path))
    res = run_cli("verify", str(worked_file), str(sel_path), "--kind", "linear")
    assert res.returncode == 1
    assert "kind" in res.stderr


def test_subgradient_auto_shift_with_origin_base(tmp_path):
    # seed 56 draws the origin as the base point; its offset makes
    # g(x0, 0) != 0, so only the shift normalizes the section
    path = tmp_path / "c.json"
    run_cli("gen", "convex", "--seed", "56", "--n", "1", "--nx", "1", "--ny", "3",
            "--k", "2", "--shifted", "-o", str(path))
    assert json.loads(path.read_text())["y0"] == [["0"]]
    res = run_cli("select", "subgradient", str(path), "--verify")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["verification"]["passed"] is True
    # the report names what ran: a file with y0 is shifted without --shift
    assert json.loads(res.stdout)["config"]["shift"] is True


# values Fraction() reads differently on different Python versions (1_000 on
# 3.11+, "3 / 4" on 3.12+, non-ASCII digits everywhere), and values too large
# to read: 1e999999999 used to hang, 1e5000 to fail with a misleading message
BAD_VALUES = {"underscore": "1_000", "spaced-fraction": "3 / 4", "arabic-digits": "\u0661\u0662",
              "huge-exponent": "1e5000", "giant-exponent": "1e999999999"}
# ids that used to be read as the text of the JSON value: "['a']", "True", "None"
BAD_IDS = {"list": ["a"], "boolean": True, "null": None}

MALFORMED = {
    **{f"value-{name}": dict(WORKED, f=[[v, "1"]]) for name, v in BAD_VALUES.items()},
    **{f"id-{name}": dict(WORKED, X=[x]) for name, x in BAD_IDS.items()},
    "zero-denominator": dict(WORKED, f=[["1/0", "1"]]),
    "nan": dict(WORKED, f=[["nan", "1"]]),
    "fractional-n": dict(WORKED, n="1.5"),
    # n takes one sign and ASCII digits: "\u0661" read as 1, "\u00b2" and "+-1"
    # failed inside int()
    "n-arabic-digit": dict(WORKED, n="\u0661"),
    "n-superscript-digit": dict(WORKED, n="\u00b2"),
    "n-two-signs": dict(WORKED, n="+-1"),
    "top-level-array": [WORKED],
    "duplicate-ids": dict(WORKED, X=["a", "a"], f=[["0", "1"], ["2", "3"]]),
    "y0-dimension": dict(WORKED, y0=[["0", "0"]]),
    # read as a dimension mismatch between a point of dimension 1 and a table
    # of dimension 2, which named no field of the file
    "phi-ragged": dict(WORKED, Y=[["1"], ["2"]], f=[["1", "2"]], phi=[["1", "2"], ["3"]]),
    # only the JSON integer 1 is a schema version; int() read 1.9 as 1
    "schema-version-7": dict(WORKED, schema_version=7),
    "schema-version-fractional": dict(WORKED, schema_version=1.9),
}

# (u, l) pairs for `affsel sandwich`; zip-based loading used to drop values
MALFORMED_FUNCTIONS = {
    **{f"function-value-{name}": ({"X": ["a"], "values": [v]}, {"X": ["a"], "values": ["1"]})
       for name, v in BAD_VALUES.items()},
    **{f"function-id-{name}": ({"X": [x], "values": ["0"]}, {"X": [x], "values": ["1"]})
       for name, x in BAD_IDS.items()},
    "function-duplicate-ids": ({"X": ["a", "a"], "values": ["0", "5"]},
                               {"X": ["a", "a"], "values": ["7", "9"]}),
    "function-extra-values": ({"X": ["a"], "values": ["0", "4"]},
                              {"X": ["a"], "values": ["7"]}),
    "function-string-fields": ({"X": "ab", "values": "01"},
                               {"X": ["a", "b"], "values": ["2", "3"]}),
    # the two files must list the same ids in the same order
    "function-different-ids": ({"X": ["a", "b"], "values": ["0", "1"]},
                               {"X": ["a", "c"], "values": ["2", "3"]}),
    "function-reordered-ids": ({"X": ["a", "b"], "values": ["0", "1"]},
                               {"X": ["b", "a"], "values": ["2", "3"]}),
}


# selector files for `affsel verify` against the worked instance
MALFORMED_SELECTORS = {
    **{f"selector-value-{name}": {"kind": "affine", "n": 1, "X": ["x0"], "B": [["1/2"]],
                                  "C": [v]} for name, v in BAD_VALUES.items()},
    **{f"selector-id-{name}": {"kind": "affine", "n": 1, "X": [x], "B": [["1/2"]], "C": ["1"]}
       for name, x in BAD_IDS.items()},
    "selector-without-C": {"kind": "affine", "n": 1, "X": ["x0"], "B": [["1/2"]]},
    "selector-fractional-n": {"kind": "affine", "n": 1.9, "X": ["x0"], "B": [["1/2"]],
                              "C": ["1"]},
    "selector-boolean-n": {"kind": "affine", "n": True, "X": ["x0"], "B": [["1/2"]],
                           "C": ["1"]},
    "selector-arabic-digit-n": {"kind": "affine", "n": "\u0661", "X": ["x0"],
                                "B": [["1/2"]], "C": ["1"]},
    # a string where a list belongs, a JSON boolean where a number belongs
    "selector-string-row": {"kind": "affine", "n": 1, "X": ["x0"], "B": ["9"], "C": ["1"]},
    "selector-string-column": {"kind": "affine", "n": 1, "X": ["x0"], "B": [["1/2"]],
                               "C": "9"},
    "selector-string-X": {"kind": "affine", "n": 1, "X": "x0", "B": [["1/2"]], "C": ["1"]},
    "selector-boolean-value": {"kind": "affine", "n": 1, "X": ["x0"], "B": [["1/2"]],
                               "C": [True]},
    "selector-string-exact": {"kind": "linear", "n": 1, "X": ["x0"], "A": [["1/2"]],
                              "epsilon": ["1"], "exact": "n"},
    "selector-schema-version": {"schema_version": 7, "kind": "affine", "n": 1, "X": ["x0"],
                                "B": [["1/2"]], "C": ["1"]},
    # int() read 2.7 as 2 and true as 1, and took -5
    **{f"selector-lambda-{name}": {"kind": "linear", "n": 1, "X": ["x0"], "A": [["1/2"]],
                                   "epsilon": ["1"], "lambda_max": value}
       for name, value in (("fractional", 2.7), ("boolean", True), ("negative", -5))},
}


# files that are not JSON Python can read: the decoder recursed past the
# stack limit, or refused an integer past the int-to-str digit limit
LONG_INTEGER = "9" * 5000
MALFORMED_TEXT = {
    **{f"{kind}-deep-nesting": (kind, "[" * 200_000) for kind in ("instance", "function", "selector")},
    "instance-long-integer": ("instance", f'{{"n": 1, "X": ["x0"], "Y": [[-1], [2]], '
                                          f'"f": [[0, {LONG_INTEGER}]]}}'),
    "function-long-integer": ("function", f'{{"X": ["a"], "values": [{LONG_INTEGER}]}}'),
    "selector-long-integer": ("selector", f'{{"kind": "affine", "n": 1, "X": ["x0"], '
                                          f'"B": [[0]], "C": [{LONG_INTEGER}]}}'),
}

# pipelines whose --doublings must be a non-negative integer in ASCII digits,
# and subgradient, which takes no --doublings
DOUBLINGS_PIPELINES = ("linear", "feature", "subgradient")
BAD_DOUBLINGS = {"negative": "-1", "arabic-digit": "\u0661", "superscript-digit": "\u00b2"}

# --lambda-max values that are not an integer >= 1 or b^e of non-negative
# integers; -2^2 must not be read as (-2)^2 = 4
BAD_LAMBDAS = {"lambda-negative-base": "-2^2", "lambda-negative-exponent": "2^-2",
               "lambda-zero": "0"}

# gen's integer flags take an optional '-' and ASCII digits; int() read
# "\u0661" as 1, "1_0" as 10, " 3" as 3 and "+2" as 2
BAD_GEN_INTEGERS = {"gen-seed-arabic-digit": ("--seed", "\u0661"),
                    "gen-n-arabic-digit": ("--n", "\u0661"),
                    "gen-nx-underscore": ("--nx", "1_0"),
                    "gen-ny-space": ("--ny", " 3"),
                    "gen-k-plus-sign": ("--k", "+2")}

# the removed --depth flag
DEPTH_COMMANDS = {"depth-select-affine": ("select", "affine"), "depth-sandwich": ("sandwich",)}

# the removed flags of `select subgradient`
SUBGRADIENT_REMOVED = {"subgradient-backend": ("--backend", "cone"),
                       "subgradient-lambda-max": ("--lambda-max", "2^20"),
                       "subgradient-doublings": ("--doublings", "3")}

# what the one stderr line must name
EXPECTED_MESSAGE = {
    **{f"doublings-{name}-{p}": "--doublings" for name in BAD_DOUBLINGS
       for p in DOUBLINGS_PIPELINES},
    **dict.fromkeys(("n-arabic-digit", "n-superscript-digit", "n-two-signs",
                     "selector-arabic-digit-n"),
                    "n must be a non-negative integer"),
    **{f"gen-negative-n-{f}": "n must be >= 0" for f in ("affine", "meager", "convex")},
    **dict.fromkeys(BAD_LAMBDAS, "--lambda-max"),
    **{case: f"argument {flag}: must be an integer in ASCII digits"
       for case, (flag, _) in BAD_GEN_INTEGERS.items()},
    **dict.fromkeys(DEPTH_COMMANDS, "unrecognized arguments: --depth 3"),
    **{case: f"unrecognized arguments: {flag} {value}"
       for case, (flag, value) in SUBGRADIENT_REMOVED.items()},
    "y0-dimension": "y0 point of dimension 2, expected 1",
    "phi-ragged": "phi row 1 has 1 entries, the first row has 2",
    **{f"{kind}value-{name}": "not a finite rational" for kind in ("", "function-", "selector-")
       for name in ("underscore", "spaced-fraction", "arabic-digits")},
    **{f"{kind}value-{name}": "exceeds the limit of 4300 digits"
       for kind in ("", "function-", "selector-") for name in ("huge-exponent", "giant-exponent")},
    **{f"{kind}id-{name}": "parameter id must be a JSON string or number"
       for kind in ("", "function-", "selector-") for name in BAD_IDS},
    **{f"{kind}-deep-nesting": "JSON nested too deeply"
       for kind in ("instance", "function", "selector")},
    **{f"{kind}-long-integer": "a JSON integer exceeds the limit of 4300 digits"
       for kind in ("instance", "function", "selector")},
    "selector-string-row": "B must be a list aligned with X of rows of length n",
    "selector-string-column": "C must be a list aligned with X",
    "selector-string-X": "X must be a list of parameter ids",
    "selector-boolean-value": "not a finite rational: True",
    "selector-string-exact": "exact must be a list aligned with X",
    **dict.fromkeys(("schema-version-7", "schema-version-fractional", "selector-schema-version"),
                    "schema_version must be the integer 1"),
    **{f"selector-lambda-{name}": "lambda_max must be an integer >= 1"
       for name in ("fractional", "boolean", "negative")},
    **dict.fromkeys(("function-different-ids", "function-reordered-ids"),
                    "error: domain mismatch"),
}


@pytest.mark.parametrize("case", [*MALFORMED, *MALFORMED_FUNCTIONS, *MALFORMED_SELECTORS,
                                  *MALFORMED_TEXT, "mode-float", "feature-repeated-y",
                                  *(f"doublings-{name}-{p}" for name in BAD_DOUBLINGS
                                    for p in DOUBLINGS_PIPELINES),
                                  *(f"gen-negative-n-{f}" for f in ("affine", "meager", "convex")),
                                  *BAD_LAMBDAS, *BAD_GEN_INTEGERS, *DEPTH_COMMANDS,
                                  *SUBGRADIENT_REMOVED])
def test_malformed_input_one_line_exit_1(case, worked_file, tmp_path):
    if case in MALFORMED:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(MALFORMED[case]))
        pipeline = {"y0-dimension": "subgradient", "phi-ragged": "feature"}.get(case, "affine")
        args = ("select", pipeline, str(path))
    elif case in MALFORMED_TEXT:
        kind, text = MALFORMED_TEXT[case]
        path = tmp_path / "bad.json"
        path.write_text(text)
        args = {"instance": ("select", "affine", str(path)),
                "function": ("sandwich", str(path), str(path)),
                "selector": ("verify", str(worked_file), str(path), "--kind", "affine")}[kind]
    elif case in MALFORMED_FUNCTIONS:
        u, l = tmp_path / "u.json", tmp_path / "l.json"
        u.write_text(json.dumps(MALFORMED_FUNCTIONS[case][0]))
        l.write_text(json.dumps(MALFORMED_FUNCTIONS[case][1]))
        args = ("sandwich", str(u), str(l))
    elif case == "mode-float":
        args = ("select", "affine", str(worked_file), "--mode", "float")
    elif case in MALFORMED_SELECTORS:
        sel_path = tmp_path / "sel.json"
        sel_path.write_text(json.dumps(MALFORMED_SELECTORS[case]))
        args = ("verify", str(worked_file), str(sel_path),
                "--kind", MALFORMED_SELECTORS[case]["kind"])
    elif case == "feature-repeated-y":
        # the point 1 maps to two feature images; keeping either drops data
        path = tmp_path / "feat.json"
        path.write_text(json.dumps(dict(WORKED, Y=[["1"], ["1"], ["-1"]], f=[["0", "1", "0"]],
                                        phi=[["1"], ["100"], ["-1"]])))
        args = ("select", "feature", str(path), "--verify")
    elif case.startswith("doublings-"):
        name, pipeline = case[len("doublings-"):].rsplit("-", 1)
        args = ("select", pipeline, str(worked_file), "--doublings", BAD_DOUBLINGS[name])
    elif case.startswith("gen-negative-n-"):
        args = ("gen", case.rsplit("-", 1)[1], "--seed", "1", "--n", "-1", "--nx", "1",
                "--ny", "2", "-o", str(tmp_path / "gen.json"))
    elif case in BAD_GEN_INTEGERS:
        flags = {"--seed": "1", "--n": "1", "--nx": "2", "--ny": "3", "--k": "2"}
        flag, value = BAD_GEN_INTEGERS[case]
        flags[flag] = value
        args = ("gen", "convex", *(t for pair in flags.items() for t in pair),
                "-o", str(tmp_path / "gen.json"))
    elif case in BAD_LAMBDAS:
        args = ("select", "linear", str(worked_file), f"--lambda-max={BAD_LAMBDAS[case]}")
    elif case in SUBGRADIENT_REMOVED:
        args = ("select", "subgradient", str(worked_file), *SUBGRADIENT_REMOVED[case])
    else:
        u = tmp_path / "u.json"
        u.write_text(json.dumps({"X": ["a"], "values": ["0"]}))
        files = (str(worked_file),) if case == "depth-select-affine" else (str(u), str(u))
        args = (*DEPTH_COMMANDS[case], *files, "--depth", "3")
    res = run_cli(*args, timeout=10)
    assert res.returncode == 1
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1, res.stderr
    assert "Traceback" not in res.stderr
    assert EXPECTED_MESSAGE.get(case, "") in res.stderr


# `affsel select affine FILE --trace --verify [flags]`, run from tests/golden;
# each .expected file is a recorded stdout with wall_time_s set to 0
GOLDEN_RUNS = {
    "affine_n2": ("affine_n2.json",),
    "affine_n3_staged_tight": ("affine_n3.json", "--sandwich", "staged", "--base", "tight"),
    # the affine-deep benchmark's size (gen affine --seed 1 --n 3 --nx 4
    # --ny 18): its dimension-one level has 1,640 points
    "affine_deep_n3": ("affine_deep_n3.json",),
}


@pytest.mark.parametrize("name", GOLDEN_RUNS)
def test_select_affine_trace_stdout_matches_recording(name):
    res = run_cli("select", "affine", *GOLDEN_RUNS[name], "--trace", "--verify", cwd=GOLDEN)
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
    stdout = re.sub(r'"wall_time_s": [0-9.e+-]+', '"wall_time_s": 0', res.stdout)
    assert stdout == (GOLDEN / f"{name}.expected").read_text(encoding="utf-8")


# `affsel select PIPELINE FILE --verify [flags]`, run in tests/golden and
# recorded the same way: the cone lift, the feature push, the shift, the
# convexity check and the least epsilon of concave sections, which the affine
# recordings do not run.  concave_shifted_n2.json is convex_shifted_n2.json
# with every f value negated and its meta dropped
SELECT_RUNS = {
    "linear_affine_n2": ("linear", "affine_n2.json"),
    "feature": ("feature", "feature.json"),
    "subgradient_convexity": ("subgradient", "convex_shifted_n2.json", "--check-convexity"),
    "subgradient_concave": ("subgradient", "concave_shifted_n2.json"),
    "subgradient_shift": ("subgradient", "convex_shifted_n2.json", "--shift"),
}


@pytest.mark.parametrize("name", SELECT_RUNS)
def test_select_stdout_matches_recording(name, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    assert cli.run(["select", *SELECT_RUNS[name], "--verify"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    stdout = re.sub(r'"wall_time_s": [0-9.e+-]+', '"wall_time_s": 0', out)
    assert stdout == (GOLDEN / f"{name}.expected").read_text(encoding="utf-8")


# `affsel verify` on the recorded selector files and on copies with one value
# lowered, and `affsel sandwich` in both modes: (exit code, arguments), run in
# tests/golden and recorded the same way
RECORDED_RUNS = {
    "verify_affine": (0, "verify", "affine_n2.json", "affine_n2.selector.json",
                      "--kind", "affine"),
    "verify_affine_tampered": (2, "verify", "affine_n2.json", "affine_n2.tampered.json",
                               "--kind", "affine"),
    "verify_linear": (0, "verify", "affine_n2.json", "linear_affine_n2.selector.json",
                      "--kind", "linear"),
    "verify_linear_tampered": (2, "verify", "affine_n2.json", "linear_affine_n2.tampered.json",
                               "--kind", "linear"),
    "sandwich_midpoint": (0, "sandwich", "sandwich_u.json", "sandwich_l.json"),
    "sandwich_staged": (0, "sandwich", "sandwich_u.json", "sandwich_l.json", "--mode", "staged"),
}


@pytest.mark.parametrize("name", RECORDED_RUNS)
def test_stdout_matches_recording(name, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    code, *args = RECORDED_RUNS[name]
    assert cli.run(args) == code
    out, err = capsys.readouterr()
    assert err == ""
    stdout = re.sub(r'"wall_time_s": [0-9.e+-]+', '"wall_time_s": 0', out)
    assert stdout == (GOLDEN / f"{name}.expected").read_text(encoding="utf-8")


@pytest.mark.parametrize("pipeline, recorded", [("affine", "affine_n2.selector.json"),
                                                ("linear", "linear_affine_n2.selector.json")])
def test_selector_file_matches_recording(pipeline, recorded, tmp_path):
    path = tmp_path / "sel.json"
    assert cli.run(["select", pipeline, str(GOLDEN / "affine_n2.json"), "-o", str(path)]) == 0
    assert path.read_bytes() == (GOLDEN / recorded).read_bytes()


def test_deep_selector_file_matches_recording(tmp_path):
    path = tmp_path / "sel.json"
    assert cli.run(["select", "affine", str(GOLDEN / "affine_deep_n3.json"), "-o", str(path)]) == 0
    assert path.read_bytes() == (GOLDEN / "affine_deep_n3.selector.json").read_bytes()


def test_convexity_violation_matches_recording(monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    assert cli.run(["select", "subgradient", "convexity_violation.json",
                    "--check-convexity"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (GOLDEN / "convexity_violation.stderr").read_text(encoding="utf-8")


def test_check_convexity_rejects_a_section_without_a_subgradient(monkeypatch, capsys):
    # no sample point of concave_shifted_n2.json is the midpoint of two
    # others; its base point, the first point with no subgradient, is a
    # weighted average of three sample points of higher values
    monkeypatch.chdir(GOLDEN)
    assert cli.run(["select", "subgradient", "concave_shifted_n2.json",
                    "--check-convexity"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: convexity fails for x=x0: value -3 at (-4/3, 7/5) exceeds "
                   "-254859/14395, the average of 797/2879 at (-35/6, -8/5), "
                   "462/2879 at (-7/12, -46/35), 1620/2879 at (2/3, 73/20)\n")


def test_check_convexity_rejects_a_point_off_the_base(monkeypatch, capsys):
    # the only midpoint in the sample is 0, the base point, and 0 has a
    # subgradient; 1 has none, being 3/5 (-1) + 2/5 (4) with 3/5 g(-1) +
    # 2/5 g(4) = 4/5 < g(1)
    monkeypatch.chdir(GOLDEN)
    assert cli.run(["select", "subgradient", "convexity_probe_n1.json",
                    "--check-convexity"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: convexity fails for x=x0: value 1 at (1) exceeds 4/5, "
                   "the average of 3/5 at (-1), 2/5 at (4)\n")


def test_subgradient_refuses_a_point_repeated_with_different_values(tmp_path, capsys):
    # the instance keeps the larger of two values at one point, but
    # g >= p.y - epsilon binds at the smaller: p = 0, epsilon = 0 would pass
    # --verify on the merged instance, although 0 > -1/2 at y = 1
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"n": 1, "X": ["x0"], "Y": [["-1"], ["0"], ["1"], ["1"]],
                                "f": [["1", "0", "1", "-1/2"]]}))
    assert cli.run(["select", "subgradient", str(path), "--verify"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: Y repeats the point ['1'] with different f values for x=x0\n"


def test_subgradient_merges_a_point_repeated_with_equal_values(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"n": 1, "X": ["x0", "x1"], "Y": [["-1"], ["1"], ["0"], ["1.0"]],
                                "f": [["1", "2", "0", "2"], ["0", "-1", "0", "-1"]]}))
    assert cli.run(["select", "subgradient", str(path), "--verify"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["input"]["points"] == 3
    assert report["verification"]["passed"] is True


def test_without_the_check_a_nonconvex_section_gets_its_least_epsilon(monkeypatch, capsys):
    # x0 has no subgradient at the origin: -1, 0, -4 along the first axis
    monkeypatch.chdir(GOLDEN)
    assert cli.run(["select", "subgradient", "convexity_violation.json", "--verify"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verification"]["passed"] is True
    eps = [Fraction(e) for e in report["selector"]["epsilon"]]
    assert eps[0] > 0 and eps[1] == 0


# `affsel gen FAMILY ARGS` reproduces each recorded instance file byte for byte
GEN_RUNS = {
    "affine_n2": "affine --seed 5 --n 2 --nx 3 --ny 6",
    "affine_n3": "affine --seed 6 --n 3 --nx 3 --ny 8",
    "affine_deep_n3": "affine --seed 1 --n 3 --nx 4 --ny 18",
    "affine_n0": "affine --seed 9 --n 0 --nx 2 --ny 3",
    "meager_n2": "meager --seed 7 --n 2 --nx 3 --ny 6",
    "meager_n0": "meager --seed 7 --n 0 --nx 2 --ny 3",
    "convex_shifted_n2": "convex --seed 8 --n 2 --nx 4 --ny 7 --k 3 --shifted",
    "convex_shifted_n0": "convex --seed 8 --n 0 --nx 2 --ny 3 --k 2 --shifted",
}


@pytest.mark.parametrize("name", GEN_RUNS)
def test_gen_reproduces_recorded_file(name, tmp_path):
    path = tmp_path / f"{name}.json"
    assert cli.run(["gen", *GEN_RUNS[name].split(), "-o", str(path)]) == 0
    assert path.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("family", ["affine", "meager", "convex --k 2"])
@pytest.mark.parametrize("n, points", [(0, 1), (1, 221)])
def test_gen_stops_drawing_once_it_has_every_point(family, n, points, tmp_path, monkeypatch):
    # a coordinate takes one of 221 values, so dimension n has 221^n points;
    # asked for more, gen writes them all and stops drawing
    from affsel import instances
    draws = []
    draw = instances._rand_point
    monkeypatch.setattr(instances, "_rand_point", lambda rng, n: draws.append(n) or draw(rng, n))
    path = tmp_path / "f.json"
    assert cli.run(["gen", *family.split(), "--seed", "3", "--n", str(n), "--nx", "2",
                    "--ny", "1000000", "-o", str(path)]) == 0
    assert len(json.loads(path.read_text())["Y"]) == points
    assert draws.count(n) <= 200 * points


@pytest.mark.parametrize("family", ["affine", "meager", "convex --k 2"])
def test_gen_past_a_quarter_of_the_grid_draws_cells(family, tmp_path, monkeypatch):
    # 100 of the 221 points at n=1: cells drawn without replacement, no point
    # drawn and dropped; convex keeps the origin
    from affsel import instances
    draws = []
    draw = instances._rand_point
    monkeypatch.setattr(instances, "_rand_point", lambda rng, n: draws.append(n) or draw(rng, n))
    path = tmp_path / "f.json"
    assert cli.run(["gen", *family.split(), "--seed", "3", "--n", "1", "--nx", "2",
                    "--ny", "100", "-o", str(path)]) == 0
    ys = [Fraction(y) for (y,) in json.loads(path.read_text())["Y"]]
    assert len(ys) == 100 and ys == sorted(set(ys))
    # _VALUES holds the grid's numerators over 840 = lcm(1..8)
    assert set(ys) <= {Fraction(k, 840) for k in instances._VALUES}
    assert draws == []
    if family.startswith("convex"):
        assert 0 in ys


def test_recursion_too_deep_exits_1_with_one_line(tmp_path):
    # a valid file: one recursion level per dimension passes Python's limit
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"n": 5000, "X": ["x0"], "Y": [], "f": [[]]}))
    res = run_cli("select", "affine", str(path), timeout=10)
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == ("error: input too large: recursion deeper than Python's limit "
                          "(RecursionError)\n")


def test_huge_coordinates_select_and_verify(tmp_path):
    # 1e400 is a valid coordinate, but it overflows a float
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 2, "X": ["a"], "Y": [["1e400", "1"], ["-1", "-1e400"],
                                                         ["0", "1"]], "f": [["0", "0", "0"]]}))
    res = run_cli("select", "affine", str(path), "--verify")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["verification"]["passed"] is True


def test_huge_values_take_the_exact_bridge(tmp_path, capsys, exact_hull_calls):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 1, "X": ["a"], "Y": [["-1"], ["2"], ["3"]],
                                "f": [["1e400", "1e400", "-1e400"]]}))
    assert cli.run(["select", "affine", str(path), "--verify"]) == 0
    assert json.loads(capsys.readouterr().out)["verification"]["passed"] is True
    assert exact_hull_calls


@pytest.mark.parametrize("family, pipeline", [
    ("affine", "affine --trace"), ("meager", "linear"), ("convex --k 3", "subgradient"),
    ("convex --k 3 --shifted", "subgradient"), ("convex --k 3", "subgradient --check-convexity"),
    ("convex --k 3 --shifted", "subgradient --check-convexity"), (None, "feature")])
def test_select_and_verify_build_no_view_of_the_instance(family, pipeline, tmp_path,
                                                         monkeypatch, capsys):
    # the instance is its integer form: with every check passing, selection
    # and verification build none of its Points and none of its Scalars; the
    # feature path reads the points for its phi lookup, and no Scalar
    def refused(self):
        raise AssertionError("a view of the instance was built")

    path = GOLDEN / "feature.json"
    if family is not None:
        path = tmp_path / "f.json"
        assert cli.run(["gen", *family.split(), "--seed", "5", "--n", "2", "--nx", "3",
                        "--ny", "6", "-o", str(path)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(PointSet, "points", property(refused))
    monkeypatch.setattr(Instance, "values", property(refused))
    assert cli.run(["select", *pipeline.split(), str(path), "--verify"]) == 0
    verification = json.loads(capsys.readouterr().out)["verification"]
    assert verification["passed"] is True
    assert verification.get("closure_passed", True) is True


def test_out_of_memory_exits_1_with_one_line(worked_file, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(cli, "select_affine", exhausted)
    assert cli.run(["select", "affine", str(worked_file)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: input too large: out of memory (MemoryError)\n"


def _subcommands(parser) -> dict:
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def parser_flags() -> dict:
    """{'gen': [...], 'select affine': [...], ...}: the option strings of each
    optional argument, one list of aliases per argument."""
    commands = {}
    for name, sub in _subcommands(build_parser()).items():
        if name == "select":
            commands.update({f"select {p}": q for p, q in _subcommands(sub).items()})
        else:
            commands[name] = sub
    return {name: [a.option_strings for a in p._actions
                   if a.option_strings and not isinstance(a, argparse._HelpAction)]
            for name, p in commands.items()}


# the option strings of every subcommand, in the order `--help` lists them
RECORDED_OPTIONS = {
    "gen": [["--seed"], ["--n"], ["--nx"], ["--ny"], ["--k"], ["--zero-slack"], ["--shifted"],
            ["-o", "--output"]],
    "select affine": [["--sandwich"], ["--base"], ["--verify"], ["--trace"], ["-o", "--output"]],
    "select linear": [["--lambda-max"], ["--doublings"], ["--verify"], ["-o", "--output"]],
    "select feature": [["--lambda-max"], ["--doublings"], ["--verify"], ["-o", "--output"]],
    "select subgradient": [["--shift"], ["--check-convexity"], ["--verify"],
                           ["-o", "--output"]],
    "sandwich": [["--mode"]],
    "verify": [["--kind"]],
}


def test_option_strings_match_recording():
    flags = parser_flags()
    assert list(flags) == list(RECORDED_OPTIONS)
    assert flags == RECORDED_OPTIONS


def readme_usage() -> dict:
    """The README's CLI usage block as {command: every usage line for it,
    continuation lines included}."""
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```")[1]
    usage, command = {}, None
    for line in block.splitlines():
        if line.startswith("affsel "):
            words = line.split()
            command = " ".join(words[1:3]) if words[1] == "select" else words[1]
            usage[command] = usage.get(command, "") + line
        elif line.startswith(" ") and command:
            usage[command] += line
        else:
            command = None
    return usage


def test_readme_usage_names_every_flag():
    usage, flags = readme_usage(), parser_flags()
    assert set(usage) == set(flags)
    for command, options in flags.items():
        for aliases in options:
            assert any(re.search(rf"(?<![\w-]){re.escape(f)}(?![\w-])", usage[command])
                       for f in aliases), f"README usage of {command!r} lacks {aliases[-1]}"

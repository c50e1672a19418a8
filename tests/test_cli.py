import json
import subprocess
import sys

import pytest

from conftest import subprocess_env

WORKED = {
    "schema_version": 1,
    "n": 1,
    "X": ["x0"],
    "Y": [["-1"], ["2"]],
    "f": [["0", "1"]],
}


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "affsel", *args],
        capture_output=True, text=True, env=subprocess_env(), cwd=cwd,
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


MALFORMED = {
    "zero-denominator": dict(WORKED, f=[["1/0", "1"]]),
    "nan": dict(WORKED, f=[["nan", "1"]]),
    "fractional-n": dict(WORKED, n="1.5"),
    "top-level-array": [WORKED],
    "duplicate-ids": dict(WORKED, X=["a", "a"], f=[["0", "1"], ["2", "3"]]),
    "y0-dimension": dict(WORKED, y0=[["0", "0"]]),
}

# (u, l) pairs for `affsel sandwich`; zip-based loading used to drop values
MALFORMED_FUNCTIONS = {
    "function-duplicate-ids": ({"X": ["a", "a"], "values": ["0", "5"]},
                               {"X": ["a", "a"], "values": ["7", "9"]}),
    "function-extra-values": ({"X": ["a"], "values": ["0", "4"]},
                              {"X": ["a"], "values": ["7"]}),
    "function-string-fields": ({"X": "ab", "values": "01"},
                               {"X": ["a", "b"], "values": ["2", "3"]}),
}


# selector files for `affsel verify` against the worked instance
MALFORMED_SELECTORS = {
    "selector-without-C": {"kind": "affine", "n": 1, "X": ["x0"], "B": [["1/2"]]},
    "selector-fractional-n": {"kind": "affine", "n": 1.9, "X": ["x0"], "B": [["1/2"]],
                              "C": ["1"]},
    "selector-boolean-n": {"kind": "affine", "n": True, "X": ["x0"], "B": [["1/2"]],
                           "C": ["1"]},
}


# pipelines whose --doublings must be a non-negative integer
DOUBLINGS_PIPELINES = ("linear", "feature", "subgradient")

# --lambda-max values that are not an integer >= 1 or b^e of non-negative
# integers; -2^2 must not be read as (-2)^2 = 4
BAD_LAMBDAS = {"lambda-negative-base": "-2^2", "lambda-negative-exponent": "2^-2",
               "lambda-zero": "0"}

# the removed --depth flag
DEPTH_COMMANDS = {"depth-select-affine": ("select", "affine"), "depth-sandwich": ("sandwich",)}

# what the one stderr line must name
EXPECTED_MESSAGE = {
    **{f"doublings-negative-{p}": "--doublings" for p in DOUBLINGS_PIPELINES},
    **{f"gen-negative-n-{f}": "n must be >= 0" for f in ("affine", "meager", "convex")},
    **dict.fromkeys(BAD_LAMBDAS, "--lambda-max"),
    **dict.fromkeys(DEPTH_COMMANDS, "unrecognized arguments: --depth 3"),
    "y0-dimension": "y0 point of dimension 2, expected 1",
}


@pytest.mark.parametrize("case", [*MALFORMED, *MALFORMED_FUNCTIONS, *MALFORMED_SELECTORS,
                                  "mode-float", "feature-repeated-y",
                                  *(f"doublings-negative-{p}" for p in DOUBLINGS_PIPELINES),
                                  *(f"gen-negative-n-{f}" for f in ("affine", "meager", "convex")),
                                  *BAD_LAMBDAS, *DEPTH_COMMANDS])
def test_malformed_input_one_line_exit_1(case, worked_file, tmp_path):
    if case in MALFORMED:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(MALFORMED[case]))
        pipeline = "subgradient" if case == "y0-dimension" else "affine"
        args = ("select", pipeline, str(path))
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
        args = ("verify", str(worked_file), str(sel_path), "--kind", "affine")
    elif case == "feature-repeated-y":
        # the point 1 maps to two feature images; keeping either drops data
        path = tmp_path / "feat.json"
        path.write_text(json.dumps(dict(WORKED, Y=[["1"], ["1"], ["-1"]], f=[["0", "1", "0"]],
                                        phi=[["1"], ["100"], ["-1"]])))
        args = ("select", "feature", str(path), "--verify")
    elif case.startswith("doublings-negative-"):
        args = ("select", case.rsplit("-", 1)[1], str(worked_file), "--doublings", "-1")
    elif case.startswith("gen-negative-n-"):
        args = ("gen", case.rsplit("-", 1)[1], "--seed", "1", "--n", "-1", "--nx", "1",
                "--ny", "2", "-o", str(tmp_path / "gen.json"))
    elif case in BAD_LAMBDAS:
        args = ("select", "linear", str(worked_file), f"--lambda-max={BAD_LAMBDAS[case]}")
    else:
        u = tmp_path / "u.json"
        u.write_text(json.dumps({"X": ["a"], "values": ["0"]}))
        files = (str(worked_file),) if case == "depth-select-affine" else (str(u), str(u))
        args = (*DEPTH_COMMANDS[case], *files, "--depth", "3")
    res = run_cli(*args)
    assert res.returncode == 1
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1, res.stderr
    assert "Traceback" not in res.stderr
    assert EXPECTED_MESSAGE.get(case, "") in res.stderr

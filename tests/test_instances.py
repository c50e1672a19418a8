import json
from fractions import Fraction
from itertools import product
from math import gcd
from operator import mul

import time

import pytest
from hypothesis import example, given, strategies as st

from affsel import cli
from affsel.hyperplane import Instance, select_affine
from affsel.instances import (
    MAX_DIGITS,
    InstanceFile,
    InstanceFileError,
    gen_affine_dominated,
    gen_convex_sections,
    gen_meager_linear,
    load_instance_file,
    parse_pair,
    parse_rational,
    read_json,
)
from affsel.numerics import Point, Scalar
from affsel.oracle import fm_feasible, verify_domination
from affsel.hyperplane import AffineSelector
from conftest import make_instance


def exact(v):
    return Scalar(Fraction(v))


# numerators and denominators of MAX_DIGITS digits, and one more
LARGEST = {
    "exponent": f"1e{MAX_DIGITS - 1}", "negative-exponent": f"-1e-{MAX_DIGITS - 1}",
    "digits": "9" * MAX_DIGITS, "denominator": "1/" + "9" * MAX_DIGITS,
    # 1/(2 * 10^4299): over the limit as written, under it in lowest terms
    "reduced": f"0.5e-{MAX_DIGITS - 1}",
    # each run of digits under the limit, 8,600 digits together
    "long-decimal": "1" + "0" * (MAX_DIGITS - 1) + "." + "0" * MAX_DIGITS,
}
TOO_LARGE = {
    "exponent": f"1e{MAX_DIGITS}", "negative-exponent": f"1e-{MAX_DIGITS}",
    "digits": "9" * (MAX_DIGITS + 1), "denominator": "1/" + "9" * (MAX_DIGITS + 1),
    "leading-zeros": "0" * (MAX_DIGITS + 1) + "1", "fraction-digits": "0." + "1" * (MAX_DIGITS + 1),
    "giant-exponent": "1e999999999", "giant-negative-exponent": "1e-999999999",
    "long-exponent": "1e" + "9" * (MAX_DIGITS + 1),
}

# each form of the grammar as a value whose numerator or denominator in
# lowest terms has k digits
DIGIT_FORMS = {
    "integer": lambda k: "9" * k,
    "numerator": lambda k: "9" * k + "/2",
    "denominator": lambda k: "1/" + "9" * k,
    "decimal": lambda k: "9" * (k - 1) + ".9",
    "fraction": lambda k: "0." + "0" * (k - 2) + "3",
    "exponent": lambda k: f"9e{k - 1}",
    "negative-exponent": lambda k: f"3E-{k - 1}",
}

DIGITS = "0123456789"

# small rationals, so that points and values repeat
SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)

# `gen` arguments of every family and option
GEN_ARGS = [
    [*family, "--seed", "3", "--n", "2", "--nx", "3", "--ny", "9", *flags]
    for family, flags in ((["affine"], []), (["affine"], ["--zero-slack"]), (["meager"], []),
                          (["convex", "--k", "3"], []), (["convex", "--k", "3"], ["--shifted"]))]

# the generators' value tests run on these seeds at n = 0..3
SEEDS_AND_DIMS = [(seed, n) for seed in (1, 2, 3, 19) for n in range(4)]
# the slacks gen_affine_dominated draws: p/q in [0, 5] with q <= 8
SLACKS = {Fraction(p, q) for q in range(1, 9) for p in range(5 * q + 1)}


def written(doc: InstanceFile) -> InstanceFile:
    """A generated file as its JSON text reads back."""
    return InstanceFile.from_json_dict(json.loads(doc.dumps()))


def dot(coeffs, point) -> Fraction:
    return sum(map(mul, map(Fraction, coeffs), point), Fraction(0))


def rationals(row) -> list:
    """A file's row of reduced integer pairs as Fractions."""
    return [Fraction(*pair) for pair in row]


def affine_slacks(doc: InstanceFile) -> list:
    """b.y + c - f(x, y) at every x and y of an affine file, from its witness."""
    b, c = doc.meta["witness"]["b"], doc.meta["witness"]["c"]
    return [dot(b[x], rationals(y)) + Fraction(c[x]) - Fraction(*f)
            for x, row in zip(doc.xs, doc.f_rows) for y, f in zip(doc.y_rows, row)]


@st.composite
def grammar_strings(draw):
    """Text in the grammar of parse_rational: surrounding whitespace, an
    optional sign, then "p/q", an integer (leading zeros allowed) or a
    decimal with an optional fraction and exponent."""
    run = st.text(DIGITS, min_size=1, max_size=25)
    form = draw(st.sampled_from(["fraction", "integer", "decimal"]))
    if form == "fraction":
        body = f"{draw(run)}/{draw(run.filter(lambda d: d.strip('0')))}"
    elif form == "integer":
        body = draw(run)
    else:
        whole = draw(st.text(DIGITS, max_size=25))
        frac = draw(st.none() | st.text(DIGITS, max_size=25))
        if not whole and not frac:
            whole = draw(run)
        exp = draw(st.none() | st.tuples(st.sampled_from("eE"), st.sampled_from(["", "-", "+"]),
                                         st.text(DIGITS, min_size=1, max_size=3)))
        body = whole + ("" if frac is None else "." + frac) + ("".join(exp) if exp else "")
    space = st.text(" \t\n\r\u2002", max_size=3)
    return draw(space) + draw(st.sampled_from(["", "-", "+"])) + body + draw(space)


GRAMMAR = [
    ("3/4", "3/4"), ("-6/8", "-3/4"), ("+3/4", "3/4"), (" 7\n", "7"), ("\u20027", "7"),
    ("007", "7"),
    ("0.5", "1/2"), (".5", "1/2"), ("1.", "1"), ("-1.5e+2", "-150"), ("1E-3", "1/1000"),
    ("-0", "0"), (12, "12"), (0.1, "1/10"), (1e16, "10000000000000000"), (-2.5e-3, "-1/400"),
    # zero at any exponent, read without building 10^999999999
    ("0e999999999", "0"), ("0.000e-999999999", "0"),
]
NOT_RATIONAL = [
    "", ".", "e5", "1e", "1/2e3", "1/-2", "1/0", "0/0", "1_000", "3 / 4", "\u0661\u0662",
    "\u22121", "1 2", "0x10", "inf", "nan", "Infinity", float("inf"), float("nan"),
    True, None, [1], {"1": 1},
]


class TestParseRational:
    @pytest.mark.parametrize("value, expected", GRAMMAR)
    def test_grammar(self, value, expected):
        assert parse_rational(value) == Fraction(expected)

    @pytest.mark.parametrize("value", NOT_RATIONAL)
    def test_not_a_rational(self, value):
        with pytest.raises(InstanceFileError, match="not a finite rational"):
            parse_rational(value)

    @given(st.fractions())
    def test_reads_its_own_output(self, value):
        assert parse_rational(str(value)) == value

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_json_numbers_read_as_their_decimal_text(self, value):
        assert parse_rational(value) == Fraction(str(value))

    @example(".5")
    @example("1.")
    @example("+3/4")
    @example(" 7\n")
    @example("007")
    @example("-1.5e+2")
    @example("1E-3")
    @example("-0")
    @example("0e999")
    @given(grammar_strings())
    def test_agrees_with_fraction_on_the_grammar(self, text):
        assert parse_rational(text) == Fraction(text)

    @pytest.mark.parametrize("sign", ["-", "+"])
    @pytest.mark.parametrize("form", DIGIT_FORMS)
    def test_each_form_at_the_digit_limit(self, form, sign):
        text = sign + DIGIT_FORMS[form](MAX_DIGITS)
        out = parse_rational(text)
        assert out == Fraction(text)
        assert MAX_DIGITS in (len(str(abs(out.numerator))), len(str(out.denominator)))
        with pytest.raises(InstanceFileError, match=f"exceeds the limit of {MAX_DIGITS} digits"):
            parse_rational(sign + DIGIT_FORMS[form](MAX_DIGITS + 1))

    @pytest.mark.parametrize("name", LARGEST)
    def test_largest_values_read(self, name):
        out = parse_rational(LARGEST[name])
        assert max(abs(out.numerator), out.denominator) < 10 ** MAX_DIGITS

    @pytest.mark.parametrize("name", TOO_LARGE)
    def test_size_limit_named_before_building(self, name):
        started = time.perf_counter()
        with pytest.raises(InstanceFileError, match=f"limit of {MAX_DIGITS} digits"):
            parse_rational(TOO_LARGE[name])
        assert time.perf_counter() - started < 1


# every value TestParseRational reads or refuses
PARSE_CASES = ([value for value, _ in GRAMMAR] + NOT_RATIONAL
               + [sign + DIGIT_FORMS[form](k) for sign in "-+" for form in DIGIT_FORMS
                  for k in (MAX_DIGITS, MAX_DIGITS + 1)]
               + list(LARGEST.values()) + list(TOO_LARGE.values()))


def outcome(read, value):
    """What ``read`` returns for value, or the message of its InstanceFileError."""
    try:
        return read(value)
    except InstanceFileError as exc:
        return f"error: {exc}"


class TestParsePair:
    @staticmethod
    def assert_reduced_pair_of_parse_rational(value):
        pair, want = outcome(parse_pair, value), outcome(parse_rational, value)
        if isinstance(want, str):
            assert pair == want
        else:
            assert pair == want.as_integer_ratio()
            assert pair[1] > 0 and gcd(*pair) == 1

    @pytest.mark.parametrize("value", PARSE_CASES, ids=range(len(PARSE_CASES)))
    def test_every_parse_rational_case(self, value):
        self.assert_reduced_pair_of_parse_rational(value)

    @given(grammar_strings())
    def test_grammar_strings(self, text):
        self.assert_reduced_pair_of_parse_rational(text)
        assert parse_pair(text) == Fraction(text).as_integer_ratio()

    @example("-0")
    @example("0/7")
    @example("-12/8")
    @example("0012/0004")
    @given(grammar_strings())
    def test_the_plain_forms_read_as_the_regex_reads_them(self, text):
        # a trailing space sends the same text through the regex
        text = text.strip()
        assert outcome(parse_pair, text) == outcome(parse_pair, text + " ")

    def test_a_file_reads_into_reduced_pairs(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"n": 1, "X": ["x0"], "Y": [["2/4"], ["-0/5"], ["+3"]],
                                    "f": [["1", "-6/4", 5]]}))
        doc = load_instance_file(path)
        assert doc.y_rows == [[(1, 2)], [(0, 1)], [(3, 1)]]
        assert doc.f_rows == [[(1, 1), (-3, 2), (5, 1)]]


def test_read_json_bounds_integers(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(f"[{'9' * MAX_DIGITS}, -{'9' * MAX_DIGITS}]")
    assert read_json(path) == [10 ** MAX_DIGITS - 1, 1 - 10 ** MAX_DIGITS]
    path.write_text(f"[1{'0' * MAX_DIGITS}]")
    with pytest.raises(InstanceFileError, match=f"integer exceeds the limit of {MAX_DIGITS} digits"):
        read_json(path)


class TestInstanceFile:
    def test_schema_field_names(self):
        doc = gen_affine_dominated(1, 1, 2, 3)
        data = json.loads(doc.dumps())
        assert set(data) == {"schema_version", "n", "X", "Y", "f", "meta"}
        doc2 = gen_convex_sections(1, 1, 2, 3, k=2, shifted=True)
        data2 = json.loads(doc2.dumps())
        assert {"schema_version", "n", "X", "Y", "f", "y0", "meta"} <= set(data2)

    def test_parse_serialize_parse_identity(self):
        doc = gen_affine_dominated(5, 2, 3, 6)
        text = doc.dumps()
        again = InstanceFile.from_json_dict(json.loads(text))
        assert again.dumps() == text

    def test_rationals_normalized(self):
        raw = {"schema_version": 1, "n": 1, "X": ["x0"],
               "Y": [["2/6"]], "f": [["-4/2"]]}
        data = json.loads(InstanceFile.from_json_dict(raw).dumps())
        assert data["Y"] == [["1/3"]]
        assert data["f"] == [["-2"]]

    def test_alignment_errors(self):
        with pytest.raises(InstanceFileError):
            InstanceFile.from_json_dict(
                {"schema_version": 1, "n": 1, "X": ["x0"], "Y": [["1"]], "f": [["1", "2"]]})
        with pytest.raises(InstanceFileError):
            InstanceFile.from_json_dict(
                {"schema_version": 1, "n": 2, "X": ["x0"], "Y": [["1"]], "f": [["1"]]})

    def test_duplicate_points_merge_on_load(self):
        raw = {"schema_version": 1, "n": 1, "X": ["x0"],
               "Y": [["1"], ["1"]], "f": [["2", "7"]]}
        inst = InstanceFile.from_json_dict(raw).to_instance()
        assert len(inst.ys) == 1
        assert inst.values["x0"] == (exact(7),)

    @given(st.data())
    def test_to_instance_equals_build_on_the_same_rationals(self, data):
        # points repeat and come unsorted; text is written unreduced, so the
        # reader reduces what Instance.build gets reduced
        n = data.draw(st.integers(0, 3))
        pool = data.draw(st.lists(st.tuples(*[SMALL] * n), min_size=1, max_size=4))
        points = data.draw(st.lists(st.sampled_from(pool), max_size=8))
        xs = [f"x{i}" for i in range(data.draw(st.integers(0, 3)))]
        rows = {x: data.draw(st.lists(SMALL, min_size=len(points), max_size=len(points)))
                for x in xs}
        scale = data.draw(st.integers(1, 6))

        def text(v):
            return f"{v.numerator * scale}/{v.denominator * scale}"

        raw = {"n": n, "X": xs, "Y": [list(map(text, p)) for p in points],
               "f": [list(map(text, rows[x])) for x in xs]}
        got = InstanceFile.from_json_dict(raw).to_instance()
        want = Instance.build(n, xs, points, rows)
        assert got.vectors == want.vectors
        assert got.pairs == want.pairs

    @pytest.mark.parametrize("args", GEN_ARGS, ids=" ".join)
    def test_gen_files_write_back_byte_for_byte(self, args, tmp_path):
        path = tmp_path / "f.json"
        assert cli.run(["gen", *args, "-o", str(path)]) == 0
        assert load_instance_file(path).dumps() == path.read_text(encoding="utf-8")

    @pytest.mark.parametrize("args", GEN_ARGS, ids=" ".join)
    def test_reading_a_gen_file_builds_no_fraction(self, args, tmp_path, monkeypatch):
        path = tmp_path / "f.json"
        assert cli.run(["gen", *args, "-o", str(path)]) == 0

        def refuse(cls, *args, **kwargs):
            raise AssertionError("a Fraction was built")

        monkeypatch.setattr(Fraction, "__new__", refuse)
        inst = load_instance_file(path).to_instance()
        monkeypatch.undo()
        assert len(inst.ys) > 1 and inst.pairs


class TestGenAffineDominated:
    def test_deterministic(self):
        assert gen_affine_dominated(7, 2, 3, 5).dumps() == gen_affine_dominated(7, 2, 3, 5).dumps()

    def test_zero_slack_exactly_affine(self):
        doc = gen_affine_dominated(3, 1, 2, 4, zero_slack=True)
        inst = doc.to_instance()
        for i, x in enumerate(doc.xs):
            b = Point(exact(v) for v in doc.meta["witness"]["b"][x])
            c = exact(doc.meta["witness"]["c"][x])
            for j, p in enumerate(inst.ys.points):
                assert inst.values[x][j].value == b.dot(p).value + c.value
        for seed, n in SEEDS_AND_DIMS:
            doc = written(gen_affine_dominated(seed, n, 3, 6, zero_slack=True))
            assert set(affine_slacks(doc)) == {0}

    def test_slacks_are_drawn_grid_values(self):
        for seed, n in SEEDS_AND_DIMS:
            slacks = set(affine_slacks(written(gen_affine_dominated(seed, n, 3, 6))))
            assert slacks <= SLACKS and len(slacks) > 1

    def test_planted_witness_feasible(self):
        doc = gen_affine_dominated(11, 2, 2, 6)
        inst = doc.to_instance()
        res = fm_feasible(inst.ys, inst.values, homogeneous=False)
        assert all(r.feasible for r in res.values())
        for x in inst.xs:
            b = Point(exact(v) for v in doc.meta["witness"]["b"][x])
            c = exact(doc.meta["witness"]["c"][x])
            sel = AffineSelector(n=inst.n, xs=(x,), b={x: b}, c={x: c})
            sub = make_instance(inst.n, inst.ys.points, {x: inst.values[x]})
            assert verify_domination(sub, sel).passed

    def test_small_denominators(self):
        doc = gen_affine_dominated(13, 3, 2, 8)
        for row in doc.y_rows:
            for cell in row:
                assert Fraction(*cell).denominator <= 8

    def test_n_zero(self):
        doc = gen_affine_dominated(17, 0, 3, 5)
        assert doc.y_rows == [[]]
        inst = doc.to_instance()
        sel, _ = select_affine(inst)
        assert verify_domination(inst, sel).passed


class TestGenMeagerLinear:
    def test_values_are_linear(self):
        doc = gen_meager_linear(23, 2, 3, 5)
        inst = doc.to_instance()
        for x in inst.xs:
            alpha = Point(exact(v) for v in doc.meta["witness"]["alpha"][x])
            for j, p in enumerate(inst.ys.points):
                assert inst.values[x][j] == alpha.dot(p)
        for seed, n in SEEDS_AND_DIMS:
            doc = written(gen_meager_linear(seed, n, 3, 6))
            alpha = doc.meta["witness"]["alpha"]
            for x, row in zip(doc.xs, doc.f_rows):
                assert rationals(row) == [dot(alpha[x], rationals(y)) for y in doc.y_rows]

    def test_homogeneous_feasible(self):
        doc = gen_meager_linear(29, 1, 2, 6)
        inst = doc.to_instance()
        res = fm_feasible(inst.ys, inst.values, homogeneous=True)
        assert all(r.feasible for r in res.values())

    def test_deterministic(self):
        assert gen_meager_linear(31, 1, 2, 4).dumps() == gen_meager_linear(31, 1, 2, 4).dumps()


class TestGenConvexSections:
    def test_origin_present_with_zero_value(self):
        doc = gen_convex_sections(37, 2, 2, 6, k=3)
        inst = doc.to_instance()
        from affsel.numerics import origin_point
        j = inst.ys.index_of(origin_point(2).raw())
        assert j is not None
        for x in inst.xs:
            assert inst.values[x][j] == exact(0)

    def test_values_match_max_of_slopes(self):
        doc = gen_convex_sections(41, 1, 2, 5, k=4)
        inst = doc.to_instance()
        for x in inst.xs:
            slopes = [Point(exact(v) for v in s)
                      for s in doc.meta["witness"]["slopes"][x]]
            for j, p in enumerate(inst.ys.points):
                best = max(s.dot(p).value for s in slopes)
                assert inst.values[x][j].value == best
        # shifted: max_k s_k.(y - y0) + offset, from the file's own y0 and offsets
        for (seed, n), shifted in product(SEEDS_AND_DIMS, (False, True)):
            doc = written(gen_convex_sections(seed, n, 3, 6, k=3, shifted=shifted))
            slopes = doc.meta["witness"]["slopes"]
            for i, (x, row) in enumerate(zip(doc.xs, doc.f_rows)):
                y0 = rationals(doc.y0_rows[i]) if shifted else [0] * n
                offset = Fraction(doc.meta["offsets"][x]) if shifted else 0
                moved = [[a - b for a, b in zip(rationals(y), y0)] for y in doc.y_rows]
                assert rationals(row) == [max(dot(s, d) for s in slopes[x]) + offset
                                          for d in moved]

    def test_k_one_linear(self):
        doc = gen_convex_sections(43, 1, 1, 4, k=1)
        inst = doc.to_instance()
        slope = Point(exact(v) for v in doc.meta["witness"]["slopes"]["x0"][0])
        for j, p in enumerate(inst.ys.points):
            assert inst.values["x0"][j] == slope.dot(p)

    def test_shifted_twin_shares_base_draw(self):
        plain = gen_convex_sections(47, 2, 2, 5, k=2)
        shifted = gen_convex_sections(47, 2, 2, 5, k=2, shifted=True)
        assert plain.meta["witness"] == shifted.meta["witness"]
        assert shifted.y0_rows is not None
        base = shifted.y0_table()["x0"]
        inst = shifted.to_instance()
        assert inst.ys.index_of(base.raw()) is not None

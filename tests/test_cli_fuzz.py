"""The CLI contract on any file and any ladder flags: whatever an instance or
selector file holds, `affsel select` and `affsel verify` exit 0, 1 or 2, write
at most one line to stderr, and let no exception escape, each example within
``DEADLINE``.  Exit 1 writes nothing to stdout; exits 0 and 2 write one JSON
report.

Files are drawn small (n <= 3, at most 4 points and 3 parameters): about
half are well formed, so the pipelines run to the end, and the rest have one
field replaced by a value of the wrong shape or type, or dropped.  Raw files
are random bytes, or such a JSON document with a few bytes spliced in.
`--lambda-max` and `--doublings` are drawn in and out of range, past the
4300-digit bound on the largest rung among them.  `affsel sandwich` is fuzzed
the same way on pairs of function files, in both modes.
"""

import contextlib
import io
import json
import tempfile
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from affsel import cli

RATIONALS = st.one_of(st.sampled_from(["0", "1", "-1", "1/2", "-3/4", "5/3", "2", "-0.25"]),
                      st.integers(-4, 4))
JUNK = st.one_of(st.none(), st.booleans(), st.floats(), st.integers(-10 ** 6, 10 ** 6),
                 st.sampled_from(["", "x", "1/0", "1e400", "1e-400", "--1", "1/2/3", "0x10"]),
                 st.lists(st.integers(-2, 2), max_size=2), st.just({}))
IDS = st.lists(st.sampled_from(["x0", "x1", "x2", 3, 1.5]), min_size=1, max_size=3, unique=True)

PIPELINES = ("affine", "linear", "feature", "subgradient")
LADDER_PIPELINES = ("linear", "feature")
LAMBDAS = st.one_of(st.integers(1, 2 ** 64).map(str),
                    st.sampled_from(["1", "2^20", "2^14000", "2^14285", "10^5000", "1^99999",
                                     "0^0", "0", "-1", "2^-1", "1.5", "", "x", "9" * 4301]))
DOUBLINGS = st.one_of(st.integers(0, 3).map(str), st.sampled_from(["300", "14400", "-1", "x"]))
# the per-example time bound: at 1,500 examples per property the slowest
# example took 0.36 s (the ladder flags; 0.10-0.34 s elsewhere, 4-6 ms on
# average, Python 3.11 on a shared 2-vCPU x86-64 VM), over ten times less
DEADLINE = timedelta(seconds=5)


def rows(draw, count, width):
    return [draw(st.lists(RATIONALS, min_size=width, max_size=width)) for _ in range(count)]


def corrupt(draw, doc: dict) -> dict:
    """The document with one field dropped, replaced by junk, or holding
    junk in one of its entries."""
    key = draw(st.sampled_from(sorted(doc)))
    how = draw(st.sampled_from(["drop", "replace", "entry"]))
    if how == "drop":
        del doc[key]
    elif how == "replace" or not (isinstance(doc[key], list) and doc[key]):
        doc[key] = draw(JUNK)
    else:
        entries = doc[key]
        i = draw(st.integers(0, len(entries) - 1))
        if isinstance(entries[i], list) and entries[i] and draw(st.booleans()):
            entries[i][draw(st.integers(0, len(entries[i]) - 1))] = draw(JUNK)
        else:
            entries[i] = draw(JUNK)
    return doc


@st.composite
def instance_docs(draw, n=None, xs=None):
    n = draw(st.integers(0, 3)) if n is None else n
    xs = draw(IDS) if xs is None else xs
    m = draw(st.integers(0, 4))
    doc = {"n": n, "X": xs, "Y": rows(draw, m, n), "f": rows(draw, len(xs), m)}
    if draw(st.booleans()):
        doc["schema_version"] = 1
    if draw(st.booleans()):
        doc["phi"] = rows(draw, m, draw(st.integers(0, 3)))
    if draw(st.booleans()):
        doc["y0"] = rows(draw, len(xs), n)
    return corrupt(draw, doc) if draw(st.booleans()) else doc


@st.composite
def selector_docs(draw, n, xs):
    kind = draw(st.sampled_from(["affine", "linear"]))
    doc = {"schema_version": 1, "kind": kind, "n": n, "X": xs}
    if kind == "affine":
        doc.update(B=rows(draw, len(xs), n), C=draw(st.lists(RATIONALS, min_size=len(xs),
                                                               max_size=len(xs))))
    else:
        doc.update(A=rows(draw, len(xs), n),
                   epsilon=draw(st.lists(RATIONALS, min_size=len(xs), max_size=len(xs))),
                   exact=draw(st.lists(st.booleans(), min_size=len(xs), max_size=len(xs))),
                   lambda_max=draw(st.integers(1, 2 ** 20)))
    if draw(st.booleans()):
        doc = {"command": "select", "selector": doc}
    return corrupt(draw, doc) if draw(st.booleans()) else doc


@st.composite
def verify_cases(draw):
    """An instance file and a selector file, mostly of one dimension and one
    set of ids, and the --kind to read the selector as."""
    n, xs = draw(st.integers(0, 3)), draw(IDS)
    inst = draw(instance_docs(n, xs))
    if draw(st.booleans()):
        n, xs = draw(st.integers(0, 3)), draw(IDS)
    return inst, draw(selector_docs(n, xs)), draw(st.sampled_from(["affine", "linear"]))


@st.composite
def sandwich_cases(draw):
    """Two function files {"X", "values"} for `affsel sandwich`, mostly on
    one list of ids and, in about half the draws, with u <= l at every id;
    each file has one field corrupted in about a quarter of the draws."""
    xs = draw(IDS)
    pairs = draw(st.lists(st.tuples(RATIONALS, RATIONALS), min_size=len(xs), max_size=len(xs)))
    if draw(st.booleans()):
        pairs = [sorted(pair, key=lambda v: Fraction(str(v))) for pair in pairs]
    docs = [{"X": xs, "values": [pair[i] for pair in pairs]} for i in (0, 1)]
    if draw(st.booleans()):
        docs[1]["X"] = draw(IDS)
    return [corrupt(draw, doc) if draw(st.integers(0, 3)) == 0 else doc for doc in docs]


def raw(draw, doc) -> bytes:
    """Random bytes, or the document as JSON with up to 4 of its bytes
    replaced by up to 4 random ones."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    text = json.dumps(doc).encode()
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, min(len(text), i + 4)))
    return text[:i] + draw(st.binary(max_size=4)) + text[j:]


def run_in_process(argv_of, *docs) -> None:
    """cli.run on the documents (bytes are written as they are) written to
    files, checked against the contract."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, doc in enumerate(docs):
            paths.append(Path(tmp) / f"doc{i}.json")
            if isinstance(doc, bytes):
                paths[-1].write_bytes(doc)
            else:
                paths[-1].write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv_of(*map(str, paths)))
    assert code in (0, 1, 2)
    assert len(err.getvalue().splitlines()) <= 1, err.getvalue()
    if code == 1:
        assert out.getvalue() == ""
    else:
        assert isinstance(json.loads(out.getvalue()), dict)


@settings(max_examples=120, deadline=DEADLINE)
@given(instance_docs(), st.sampled_from(PIPELINES), st.booleans())
def test_select_on_any_instance_file_exits_0_1_or_2(doc, pipeline, verify):
    flags = ("--verify",) if verify else ()
    run_in_process(lambda path: ["select", pipeline, path, *flags], doc)


@settings(max_examples=120, deadline=DEADLINE)
@given(verify_cases())
def test_verify_on_any_selector_file_exits_0_1_or_2(case):
    inst, selector, kind = case
    run_in_process(lambda i, s: ["verify", i, s, "--kind", kind], inst, selector)


@settings(max_examples=60, deadline=DEADLINE)
@given(st.data(), instance_docs(), st.sampled_from(PIPELINES))
def test_select_on_raw_bytes_exits_0_1_or_2(data, doc, pipeline):
    run_in_process(lambda path: ["select", pipeline, path], raw(data.draw, doc))


@settings(max_examples=60, deadline=DEADLINE)
@given(st.data(), verify_cases())
def test_verify_on_raw_bytes_exits_0_1_or_2(data, case):
    inst, selector, kind = case
    run_in_process(lambda i, s: ["verify", i, s, "--kind", kind], inst, raw(data.draw, selector))


@settings(max_examples=60, deadline=DEADLINE)
@given(instance_docs(), st.sampled_from(LADDER_PIPELINES), LAMBDAS, DOUBLINGS)
def test_select_with_any_ladder_flags_exits_0_1_or_2(doc, pipeline, lambda_max, doublings):
    run_in_process(lambda path: ["select", pipeline, path, f"--lambda-max={lambda_max}",
                                 f"--doublings={doublings}"], doc)


@settings(max_examples=120, deadline=DEADLINE)
@given(sandwich_cases(), st.sampled_from(["midpoint", "staged"]))
def test_sandwich_on_any_function_files_exits_0_1_or_2(docs, mode):
    run_in_process(lambda u, l: ["sandwich", u, l, "--mode", mode], *docs)


@settings(max_examples=60, deadline=DEADLINE)
@given(st.data(), sandwich_cases(), st.sampled_from(["midpoint", "staged"]))
def test_sandwich_on_raw_bytes_exits_0_1_or_2(data, docs, mode):
    which = data.draw(st.sampled_from([(0,), (1,), (0, 1)]))
    docs = [raw(data.draw, doc) if i in which else doc for i, doc in enumerate(docs)]
    run_in_process(lambda u, l: ["sandwich", u, l, "--mode", mode], *docs)

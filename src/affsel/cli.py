"""Batch front door: generate, select, verify, sandwich.

Reports are machine-readable JSON on standard output; diagnostics go to
standard error.  Exit codes: 0 success (all requested verifications pass),
2 verification failure, 1 input/usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, NamedTuple, Optional

from .numerics import AffselError, Point, Scalar
from .sandwich import sandwich
from .hyperplane import AffineSelector, Instance, SelectConfig, select_affine
from .conelift import LinearConfig, LinearSelector, feature_select, select_linear
from .subgradient import (
    ConvexSectionInstance,
    SubgradientConfig,
    select_subgradient,
    shift_to_origin,
)
from .oracle import (
    verify_domination,
    verify_feature_domination,
    verify_subgradient_domination,
    verify_working_closure,
)
from .instances import (
    MAX_DIGITS,
    InstanceFileError,
    check_schema_version,
    gen_affine_dominated,
    gen_convex_sections,
    gen_meager_linear,
    load_instance_file,
    pair_text,
    parse_dimension,
    parse_ids,
    parse_rational,
    read_json,
    save_instance_file,
)


class CLIUsageError(AffselError):
    pass


class _Parser(argparse.ArgumentParser):
    # input errors exit 1 (argparse defaults to 2, which we reserve for
    # verification failures)
    def error(self, message):
        raise CLIUsageError(message)


def _is_digits(text: str) -> bool:
    return text.isascii() and text.isdigit()


def _integer(text: str) -> int:
    """An optional '-' and the ASCII digits 0-9."""
    if not _is_digits(text[1:] if text.startswith("-") else text):
        raise argparse.ArgumentTypeError(f"must be an integer in ASCII digits, got {text!r}")
    return int(text)


# the largest rung a selection may reach, lambda_max * 2^doublings, stays
# below this: the report writes it, and ints of more digits cannot be printed
_RUNG_LIMIT = 10 ** MAX_DIGITS


def _parse_lambda(text: str) -> Optional[int]:
    """A positive integer, or b^e with non-negative integers b and e; None if
    it is not below _RUNG_LIMIT, which b^e is found not to be from e and the
    bit length of b before any power is computed."""
    parts = text.split("^", 1)
    if all(map(_is_digits, parts)):
        if max(len(part.lstrip("0")) for part in parts) > MAX_DIGITS:
            return None
        base, exp = int(parts[0]), int(parts[1]) if len(parts) == 2 else 1
        # b^e >= 2^((bits of b - 1) e), and 2^(bits of the limit) exceeds it
        if (base.bit_length() - 1) * exp >= _RUNG_LIMIT.bit_length():
            return None
        value = base ** exp
        if value >= 1:
            return value if value < _RUNG_LIMIT else None
    raise CLIUsageError(f"--lambda-max must be an integer >= 1 or 'b^e' with "
                        f"non-negative integers b and e, got {text!r}")


def _non_negative(text: str) -> int:
    if not _is_digits(text):
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> _Parser:
    parser = _Parser(prog="affsel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a seeded instance file")
    gen.add_argument("family", choices=["affine", "meager", "convex"])
    for flag in ("--seed", "--n", "--nx", "--ny"):
        gen.add_argument(flag, type=_integer, required=True)
    gen.add_argument("--k", type=_integer, default=3)
    gen.add_argument("--zero-slack", action="store_true")
    gen.add_argument("--shifted", action="store_true")
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(handler=_cmd_gen)

    sel = sub.add_parser("select", help="run a selection pipeline")
    sel_sub = sel.add_subparsers(dest="pipeline", required=True)
    # each pipeline's options in --help order, between FILE and -o
    store_true = {"action": "store_true"}
    ladder = [("--lambda-max", {"default": "2^20"}),
              ("--doublings", {"type": _non_negative, "default": 3})]
    verify = ("--verify", store_true)
    pipelines = {
        "affine": (_select_affine, [
            ("--sandwich", {"choices": ["midpoint", "staged"], "default": "midpoint"}),
            ("--base", {"choices": ["novikov", "tight"], "default": "novikov"}),
            verify, ("--trace", store_true)]),
        "linear": (_select_linear, [*ladder, verify]),
        "feature": (_select_feature, [*ladder, verify]),
        "subgradient": (_select_subgradient, [
            ("--shift", store_true), ("--check-convexity", store_true), verify]),
    }
    for name, (select, options) in pipelines.items():
        pipe = sel_sub.add_parser(name)
        pipe.add_argument("file")
        for option, kwargs in options:
            pipe.add_argument(option, **kwargs)
        pipe.add_argument("-o", "--output")
        pipe.set_defaults(handler=_cmd_select, select=select)

    sw = sub.add_parser("sandwich", help="insert between two finite functions")
    sw.add_argument("file_u")
    sw.add_argument("file_l")
    sw.add_argument("--mode", choices=["midpoint", "staged"], default="midpoint")
    sw.set_defaults(handler=_cmd_sandwich)

    ver = sub.add_parser("verify", help="check a selector against an instance")
    ver.add_argument("file")
    ver.add_argument("selector_file")
    ver.add_argument("--kind", choices=["affine", "linear"], required=True)
    ver.set_defaults(handler=_cmd_verify)
    return parser


def _load_finite_function(path) -> dict:
    """A function file {"X": [...], "values": [...]} as {id: Fraction}, in X order."""
    data = read_json(path)
    if not (isinstance(data, dict) and isinstance(data.get("X"), list)
            and isinstance(data.get("values"), list)):
        raise InstanceFileError(f"{path}: a function file must hold the lists X and values")
    xs = parse_ids(data["X"], path)
    vals = [parse_rational(v) for v in data["values"]]
    if len(vals) != len(xs):
        raise InstanceFileError(f"{path}: {len(vals)} values for {len(xs)} ids in X")
    return dict(zip(xs, vals))


def _load_selector(path, kind: str):
    data = read_json(path)
    if isinstance(data, dict) and isinstance(data.get("selector"), dict):
        data = data["selector"]   # run reports embed the selector
    if not isinstance(data, dict) or "kind" not in data:
        raise CLIUsageError(f"{path}: not a selector file")
    if data["kind"] != kind:
        raise CLIUsageError(f"selector kind {data['kind']!r} does not match --kind {kind}")
    try:
        return _build_selector(data)
    except KeyError as exc:
        raise InstanceFileError(f"selector file: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InstanceFileError(f"selector file: malformed: {exc!r}") from None


def _build_selector(data: dict):
    """Read an affine or linear selector the way instance files are read:
    every field that holds several values is a JSON list, numbers go through
    ``parse_rational`` (0.1 is 1/10; booleans are not numbers) and
    ``exact`` holds JSON booleans."""
    check_schema_version(data, "selector file")
    n = parse_dimension(data["n"])
    xs = tuple(parse_ids(data["X"], "selector file"))

    def column(name, width=None) -> list:
        col = data[name]
        if not (isinstance(col, list) and len(col) == len(xs) and (width is None or all(
                isinstance(row, list) and len(row) == width for row in col))):
            rows = "" if width is None else " of rows of length n"
            raise InstanceFileError(f"selector file: {name} must be a list aligned with X{rows}")
        return col

    def scalar(v) -> Scalar:
        return Scalar(parse_rational(v))

    def points(name) -> dict:
        return {x: Point(scalar(c) for c in row) for x, row in zip(xs, column(name, n))}

    if data["kind"] == "affine":
        return AffineSelector(n=n, xs=xs, b=points("B"),
                              c={x: scalar(v) for x, v in zip(xs, column("C"))})
    exact = column("exact") if "exact" in data else [True] * len(xs)
    if not all(isinstance(v, bool) for v in exact):
        raise InstanceFileError("selector file: exact must hold true or false per id in X")
    lambda_max = data.get("lambda_max", 1)
    if type(lambda_max) is not int or lambda_max < 1:
        raise InstanceFileError(
            f"selector file: lambda_max must be an integer >= 1, got {lambda_max!r}")
    return LinearSelector(
        n=n, xs=xs, a=points("A"),
        epsilon={x: scalar(v) for x, v in zip(xs, column("epsilon"))},
        exact=dict(zip(xs, exact)),
        lambda_max=lambda_max,
        cone_c={},
    )


def _cmd_gen(args) -> tuple[dict, int]:
    if args.family == "affine":
        doc = gen_affine_dominated(args.seed, args.n, args.nx, args.ny,
                                   zero_slack=args.zero_slack)
    elif args.family == "meager":
        doc = gen_meager_linear(args.seed, args.n, args.nx, args.ny)
    else:
        doc = gen_convex_sections(args.seed, args.n, args.nx, args.ny, args.k,
                                  shifted=args.shifted)
    save_instance_file(doc, args.output)
    report = {
        "command": f"gen-{args.family}",
        "config": {"seed": args.seed, "n": args.n, "nx": args.nx, "ny": args.ny,
                   "k": args.k if args.family == "convex" else None,
                   "zero_slack": args.zero_slack, "shifted": args.shifted},
        "output": {"path": args.output, "points": len(doc.y_rows),
                   "params": len(doc.xs)},
    }
    return report, 0


class _Selection(NamedTuple):
    """What a pipeline hands `_cmd_select`."""
    inst: Instance
    config: dict                # the report's config block
    selector: object            # what -o writes
    report: dict                # the report's selector block
    verify: Callable[[], dict]  # runs the check, returns the verification block
    input: dict = {}            # input fields between n and params
    tail: dict = {}             # report fields after the verification block


def _verification(rep, field: str) -> dict:
    return {"passed": rep.passed, field: rep.serialize()[field]}


def _linear_config(args) -> LinearConfig:
    """The ladder flags, bounded before any work: lambda_max * 2^doublings,
    the largest rung the retries can reach, has at most MAX_DIGITS digits."""
    lambda_max, doublings = _parse_lambda(args.lambda_max), args.doublings
    if (lambda_max is None or lambda_max.bit_length() + doublings > _RUNG_LIMIT.bit_length()
            or lambda_max << doublings >= _RUNG_LIMIT):
        shown = args.lambda_max if len(args.lambda_max) <= 40 else args.lambda_max[:20] + "..."
        raise CLIUsageError(f"--lambda-max {shown} times 2^{doublings} (--doublings) "
                            f"exceeds the limit of {MAX_DIGITS} digits")
    return LinearConfig(lambda_max=lambda_max, doublings=doublings)


def _linear_report(selector: LinearSelector) -> dict:
    return {**selector.serialize(), "attempts": [
        {"lambda_max": a.lambda_max, "exact": [a.exact[x] for x in selector.xs]}
        for a in selector.attempts]}


def _select_affine(args, doc) -> _Selection:
    inst = doc.to_instance()
    selector, trace = select_affine(inst, SelectConfig(sandwich_mode=args.sandwich,
                                                       base=args.base))

    def verify() -> dict:
        rep = verify_domination(inst, selector, kind="affine")
        closure = verify_working_closure(trace, selector)
        return {"passed": rep.passed and closure.passed,
                "min_slack": rep.serialize()["min_slack"], "closure_passed": closure.passed}

    return _Selection(
        inst, {"sandwich": args.sandwich, "base": args.base, "verify": args.verify,
               "trace": args.trace},
        selector, selector.serialize(), verify,
        tail={"trace_summary": trace.summary()} if args.trace else {})


def _select_linear(args, doc) -> _Selection:
    inst = doc.to_instance()
    config = _linear_config(args)
    selector = select_linear(inst, config)
    return _Selection(
        inst, {"lambda_max": config.lambda_max, "doublings": config.doublings,
               "verify": args.verify},
        selector, _linear_report(selector),
        lambda: _verification(verify_domination(inst, selector, kind="linear"), "min_slack"))


def _select_feature(args, doc) -> _Selection:
    if doc.phi_rows is None:
        raise CLIUsageError("feature selection requires a phi table")
    inst = doc.to_instance()
    phi = doc.phi_table()
    config = _linear_config(args)
    selector = feature_select(inst, phi, config)
    return _Selection(
        inst, {"lambda_max": config.lambda_max, "doublings": config.doublings,
               "verify": args.verify},
        selector, _linear_report(selector),
        lambda: _verification(verify_feature_domination(inst, selector, phi), "failures"),
        input={"feature_dim": selector.n})


def _single_valued(doc) -> None:
    """Where Y repeats a point, every f row repeats its value there: the
    instance keeps the larger of two values, and g >= p.y - epsilon binds at
    the smaller.  The rows hold reduced pairs, equal exactly where the values are."""
    first: dict = {}
    for j, y in enumerate(map(tuple, doc.y_rows)):
        k = first.setdefault(y, j)
        for x, row in zip(doc.xs, doc.f_rows):
            if row[k] != row[j]:
                raise InstanceFileError(f"Y repeats the point {list(map(pair_text, y))} "
                                        f"with different f values for x={x}")


def _select_subgradient(args, doc) -> _Selection:
    _single_valued(doc)
    inst = doc.to_instance()
    csi = ConvexSectionInstance(instance=inst, y0=doc.y0_table())
    config = SubgradientConfig(check_convexity=args.check_convexity)
    selector = select_subgradient(csi, config, shift=args.shift)
    return _Selection(
        inst, {"shift": args.shift or csi.y0 is not None,
               "check_convexity": args.check_convexity, "verify": args.verify},
        selector, selector.serialize(),
        lambda: _verification(verify_subgradient_domination(
            shift_to_origin(csi).groups, selector), "failures"))


def _cmd_select(args) -> tuple[dict, int]:
    selection = args.select(args, load_instance_file(args.file))
    report = {
        "command": f"select-{args.pipeline}",
        "config": selection.config,
        "input": {"path": args.file, "n": selection.inst.n, **selection.input,
                  "params": len(selection.inst.xs), "points": len(selection.inst.ys)},
        "selector": selection.report,
    }
    passed = True
    if args.verify:
        report["verification"] = selection.verify()
        passed = report["verification"]["passed"]
    report.update(selection.tail)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(selection.selector.serialize(), indent=2) + "\n")
    return report, 0 if passed else 2


def _cmd_sandwich(args) -> tuple[dict, int]:
    u = _load_finite_function(args.file_u)
    l = _load_finite_function(args.file_l)
    f = sandwich(u, l, args.mode)
    report = {
        "command": "sandwich",
        "config": {"mode": args.mode},
        "result": {"X": list(f), "values": [Scalar(v).serialize() for v in f.values()]},
    }
    return report, 0


def _cmd_verify(args) -> tuple[dict, int]:
    inst = load_instance_file(args.file).to_instance()
    selector = _load_selector(args.selector_file, args.kind)
    missing = [x for x in inst.xs if x not in selector.xs]
    if missing:
        raise InstanceFileError(f"selector file: no selector for parameter {missing[0]!r}")
    rep = verify_domination(inst, selector, kind=args.kind)
    report = {
        "command": "verify",
        "config": {"kind": args.kind},
        "verification": rep.serialize(),
    }
    return report, 0 if rep.passed else 2


def run(argv=None) -> int:
    started = time.perf_counter()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # every command's handler returns its report and exit code
        report, exit_code = args.handler(args)
        report["wall_time_s"] = round(time.perf_counter() - started, 6)
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
        return exit_code
    except CLIUsageError as exc:
        usage = " ".join(parser.format_usage().split())
        sys.stderr.write(f"usage error: {exc}; {usage}\n")
        return 1
    except (AffselError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    # the last line of defence: an input too large for this process
    except RecursionError:
        sys.stderr.write("error: input too large: recursion deeper than Python's limit "
                         "(RecursionError)\n")
        return 1
    except MemoryError:
        sys.stderr.write("error: input too large: out of memory (MemoryError)\n")
        return 1


def main() -> None:
    sys.exit(run())

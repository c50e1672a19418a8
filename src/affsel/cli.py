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

from .numerics import AffselError, Point, Scalar
from .sandwich import sandwich
from .hyperplane import AffineSelector, SelectConfig, select_affine
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
    InstanceFileError,
    check_schema_version,
    gen_affine_dominated,
    gen_convex_sections,
    gen_meager_linear,
    load_instance_file,
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


def _parse_lambda(text: str) -> int:
    """A positive integer, or b^e with non-negative integers b and e."""
    parts = text.split("^", 1)
    if all(part.isascii() and part.isdigit() for part in parts):
        value = int(parts[0]) ** int(parts[1]) if len(parts) == 2 else int(parts[0])
        if value >= 1:
            return value
    raise CLIUsageError(f"--lambda-max must be an integer >= 1 or 'b^e' with "
                        f"non-negative integers b and e, got {text!r}")


def _non_negative(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> _Parser:
    parser = _Parser(prog="affsel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a seeded instance file")
    gen.add_argument("family", choices=["affine", "meager", "convex"])
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--nx", type=int, required=True)
    gen.add_argument("--ny", type=int, required=True)
    gen.add_argument("--k", type=int, default=3)
    gen.add_argument("--zero-slack", action="store_true")
    gen.add_argument("--shifted", action="store_true")
    gen.add_argument("-o", "--output", required=True)

    sel = sub.add_parser("select", help="run a selection pipeline")
    sel_sub = sel.add_subparsers(dest="pipeline", required=True)

    aff = sel_sub.add_parser("affine")
    aff.add_argument("file")
    aff.add_argument("--sandwich", choices=["midpoint", "staged"], default="midpoint")
    aff.add_argument("--base", choices=["novikov", "tight"], default="novikov")
    aff.add_argument("--verify", action="store_true")
    aff.add_argument("--trace", action="store_true")
    aff.add_argument("-o", "--output")

    lin = sel_sub.add_parser("linear")
    lin.add_argument("file")
    lin.add_argument("--lambda-max", default="2^20")
    lin.add_argument("--doublings", type=_non_negative, default=3)
    lin.add_argument("--verify", action="store_true")
    lin.add_argument("-o", "--output")

    feat = sel_sub.add_parser("feature")
    feat.add_argument("file")
    feat.add_argument("--lambda-max", default="2^20")
    feat.add_argument("--doublings", type=_non_negative, default=3)
    feat.add_argument("--verify", action="store_true")
    feat.add_argument("-o", "--output")

    sg = sel_sub.add_parser("subgradient")
    sg.add_argument("file")
    sg.add_argument("--backend", choices=["exact", "cone"], default="exact")
    sg.add_argument("--shift", action="store_true")
    sg.add_argument("--check-convexity", action="store_true")
    sg.add_argument("--lambda-max", default="2^20")
    sg.add_argument("--doublings", type=_non_negative, default=3)
    sg.add_argument("--verify", action="store_true")
    sg.add_argument("-o", "--output")

    sw = sub.add_parser("sandwich", help="insert between two finite functions")
    sw.add_argument("file_u")
    sw.add_argument("file_l")
    sw.add_argument("--mode", choices=["midpoint", "staged"], default="midpoint")

    ver = sub.add_parser("verify", help="check a selector against an instance")
    ver.add_argument("file")
    ver.add_argument("selector_file")
    ver.add_argument("--kind", choices=["affine", "linear"], required=True)
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


def _load_selector(path) -> dict:
    data = read_json(path)
    if isinstance(data, dict) and isinstance(data.get("selector"), dict):
        data = data["selector"]   # run reports embed the selector
    if not isinstance(data, dict) or "kind" not in data:
        raise CLIUsageError(f"{path}: not a selector file")
    return data


def _selector_from_dict(data: dict):
    try:
        return _build_selector(data)
    except KeyError as exc:
        raise InstanceFileError(f"selector file: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InstanceFileError(f"selector file: malformed: {exc!r}") from None


def _build_selector(data: dict):
    """Read a selector the way instance files are read: every field that
    holds several values is a JSON list, numbers go through
    ``parse_rational`` (0.1 is 1/10; booleans are not numbers) and
    ``exact`` holds JSON booleans."""
    check_schema_version(data, "selector file")
    kind = data["kind"]
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

    if kind == "affine":
        return AffineSelector(n=n, xs=xs, b=points("B"),
                              c={x: scalar(v) for x, v in zip(xs, column("C"))})
    if kind == "linear":
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
    raise CLIUsageError(f"unsupported selector kind {kind!r}")


def _emit(report: dict, started: float) -> None:
    report["wall_time_s"] = round(time.perf_counter() - started, 6)
    sys.stdout.write(json.dumps(report, indent=2) + "\n")


def _cmd_gen(args, started) -> int:
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
    _emit(report, started)
    return 0


def _maybe_save_selector(args, selector) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(selector.serialize(), indent=2) + "\n")


def _cmd_select_affine(args, started) -> int:
    doc = load_instance_file(args.file)
    inst = doc.to_instance()
    config = SelectConfig(sandwich_mode=args.sandwich, base=args.base)
    selector, trace = select_affine(inst, config)
    report = {
        "command": "select-affine",
        "config": {"sandwich": args.sandwich, "base": args.base,
                   "verify": args.verify, "trace": args.trace},
        "input": {"path": args.file, "n": inst.n, "params": len(inst.xs),
                  "points": len(inst.ys)},
        "selector": selector.serialize(),
    }
    exit_code = 0
    if args.verify:
        rep = verify_domination(inst, selector, kind="affine")
        closure = verify_working_closure(trace, selector)
        report["verification"] = {
            "passed": rep.passed and closure.passed,
            "min_slack": {x: s.serialize() if s is not None else None
                          for x, s in rep.min_slack.items()},
            "closure_passed": closure.passed,
        }
        if not (rep.passed and closure.passed):
            exit_code = 2
    if args.trace:
        report["trace_summary"] = trace.summary()
    _maybe_save_selector(args, selector)
    _emit(report, started)
    return exit_code


def _linear_report(selector: LinearSelector) -> dict:
    out = selector.serialize()
    out["attempts"] = [
        {"lambda_max": a.lambda_max, "exact": [a.exact[x] for x in selector.xs]}
        for a in selector.attempts
    ]
    return out


def _cmd_select_linear(args, started) -> int:
    doc = load_instance_file(args.file)
    inst = doc.to_instance()
    config = LinearConfig(lambda_max=_parse_lambda(args.lambda_max),
                          doublings=args.doublings)
    selector = select_linear(inst, config)
    report = {
        "command": "select-linear",
        "config": {"lambda_max": config.lambda_max, "doublings": config.doublings,
                   "verify": args.verify},
        "input": {"path": args.file, "n": inst.n, "params": len(inst.xs),
                  "points": len(inst.ys)},
        "selector": _linear_report(selector),
    }
    exit_code = 0
    if args.verify:
        rep = verify_domination(inst, selector, kind="linear")
        report["verification"] = {
            "passed": rep.passed,
            "min_slack": {x: s.serialize() if s is not None else None
                          for x, s in rep.min_slack.items()},
        }
        if not rep.passed:
            exit_code = 2
    _maybe_save_selector(args, selector)
    _emit(report, started)
    return exit_code


def _cmd_select_feature(args, started) -> int:
    doc = load_instance_file(args.file)
    if doc.phi_rows is None:
        raise CLIUsageError("feature selection requires a phi table")
    inst = doc.to_instance()
    phi = doc.phi_table()
    config = LinearConfig(lambda_max=_parse_lambda(args.lambda_max),
                          doublings=args.doublings)
    selector = feature_select(inst, phi, config)
    report = {
        "command": "select-feature",
        "config": {"lambda_max": config.lambda_max, "doublings": config.doublings,
                   "verify": args.verify},
        "input": {"path": args.file, "n": inst.n, "feature_dim": selector.n,
                  "params": len(inst.xs), "points": len(inst.ys)},
        "selector": _linear_report(selector),
    }
    exit_code = 0
    if args.verify:
        rep = verify_feature_domination(inst, selector, phi)
        report["verification"] = {"passed": rep.passed,
                                  "failures": rep.serialize()["failures"]}
        if not rep.passed:
            exit_code = 2
    _maybe_save_selector(args, selector)
    _emit(report, started)
    return exit_code


def _cmd_select_subgradient(args, started) -> int:
    doc = load_instance_file(args.file)
    inst = doc.to_instance()
    y0 = doc.y0_table()
    csi = ConvexSectionInstance(instance=inst, y0=y0)
    config = SubgradientConfig(
        backend=args.backend,
        linear=LinearConfig(lambda_max=_parse_lambda(args.lambda_max),
                            doublings=args.doublings),
        check_convexity=args.check_convexity)
    selector = select_subgradient(csi, config, shift=args.shift)
    report = {
        "command": "select-subgradient",
        "config": {"backend": args.backend, "shift": bool(args.shift),
                   "check_convexity": args.check_convexity,
                   "verify": args.verify},
        "input": {"path": args.file, "n": inst.n, "params": len(inst.xs),
                  "points": len(inst.ys)},
        "selector": selector.serialize(),
    }
    exit_code = 0
    if args.verify:
        rep = verify_subgradient_domination(shift_to_origin(csi).groups, selector)
        report["verification"] = {"passed": rep.passed,
                                  "failures": rep.serialize()["failures"]}
        if not rep.passed:
            exit_code = 2
    _maybe_save_selector(args, selector)
    _emit(report, started)
    return exit_code


def _cmd_sandwich(args, started) -> int:
    u = _load_finite_function(args.file_u)
    l = _load_finite_function(args.file_l)
    f = sandwich(u, l, args.mode)
    report = {
        "command": "sandwich",
        "config": {"mode": args.mode},
        "result": {"X": list(f), "values": [str(v) for v in f.values()]},
    }
    _emit(report, started)
    return 0


def _cmd_verify(args, started) -> int:
    doc = load_instance_file(args.file)
    inst = doc.to_instance()
    data = _load_selector(args.selector_file)
    if data.get("kind") != args.kind:
        raise CLIUsageError(
            f"selector kind {data.get('kind')!r} does not match --kind {args.kind}")
    selector = _selector_from_dict(data)
    missing = [x for x in inst.xs if x not in selector.xs]
    if missing:
        raise InstanceFileError(f"selector file: no selector for parameter {missing[0]!r}")
    rep = verify_domination(inst, selector, kind=args.kind)
    report = {
        "command": "verify",
        "config": {"kind": args.kind},
        "verification": rep.serialize(),
    }
    _emit(report, started)
    return 0 if rep.passed else 2


def run(argv=None) -> int:
    started = time.perf_counter()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gen":
            return _cmd_gen(args, started)
        if args.command == "select":
            if args.pipeline == "affine":
                return _cmd_select_affine(args, started)
            if args.pipeline == "linear":
                return _cmd_select_linear(args, started)
            if args.pipeline == "feature":
                return _cmd_select_feature(args, started)
            return _cmd_select_subgradient(args, started)
        if args.command == "sandwich":
            return _cmd_sandwich(args, started)
        return _cmd_verify(args, started)
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

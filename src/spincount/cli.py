"""Command-line front door for classifiers, evaluators, gadgets, and the estimator.

Function literals accept the file-format value order `<arity> <values...>`
for an arity of at least 1, as the file format does; a bare power-of-two run
of values is also accepted and its arity inferred, so "0 1" is the unary
(0, 1) and a single value such as "5" is a nullary function.
Output is line-oriented; ``--machine`` switches to one ``key=value`` record
per result with values quoted when they contain whitespace.  Results print
in full at any length, while Python's int-string limit (4300 digits by
default) still refuses a longer integer in any input.

Each subcommand's handler imports the library functions it calls when it
runs, so a command loads only the modules it uses, and always
``spincount.funcs``, which reads every literal.

Exit codes: 0 on success, 2 on input errors, 3 on capacity errors.
"""

from __future__ import annotations

import argparse
import contextlib
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence, Union

from .funcs import (
    ARITY_CAP,
    CapacityError,
    PBFunction,
    SignedTable,
    parse_rational,
    record_value,
    table_text,
)


def parse_function_literal(text: str) -> Union[PBFunction, SignedTable]:
    """Read `<arity> <values...>` with arity >= 1, falling back to a bare power-of-two table."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty function literal")
    first = tokens[0]
    if first.isdigit() and 1 <= int(first) <= ARITY_CAP and len(tokens) - 1 == 1 << int(first):
        arity = int(first)
        values = [parse_rational(t) for t in tokens[1:]]
    elif len(tokens) & (len(tokens) - 1) == 0:
        arity = len(tokens).bit_length() - 1
        values = [parse_rational(t) for t in tokens]
    else:
        raise ValueError(
            f"cannot read function literal {text!r}: want `<arity> <values...>` "
            "or a bare power-of-two table"
        )
    if any(v < 0 for v in values):
        return SignedTable.from_values(arity, values)
    return PBFunction.from_values(arity, values)


@contextlib.contextmanager
def _any_int_digits():
    """Lift Python's int-string limit while results are written; it still guards input literals."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@_any_int_digits()
def _emit(record: Sequence[object], machine: bool) -> None:
    """Write (key, value) pairs, and each report's ``record()`` pairs, inside the lifted limit."""
    pairs = [pair for item in record for pair in ([item] if isinstance(item, tuple) else item.record())]
    texts = [(key, table_text(v) if isinstance(v, tuple) else record_value(v)) for key, v in pairs]
    if machine:
        quoted = (f'{key}="{text}"' if re.search(r"\s", text) else f"{key}={text}" for key, text in texts)
        print(" ".join(quoted))
    else:
        for key, text in texts:
            print(f"{key}: {text}")


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _require_function(value: Union[PBFunction, SignedTable], what: str) -> PBFunction:
    if isinstance(value, SignedTable):
        raise ValueError(f"{what} must be nonnegative, got a signed table")
    return value


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_classify(args: argparse.Namespace) -> int:
    from .classify import classify_two_spin

    f = _require_function(parse_function_literal(args.fun), "classify input")
    _emit([classify_two_spin(f)], args.machine)
    return 0


def _cmd_props(args: argparse.Namespace) -> int:
    from .funcs import property_report

    f = _require_function(parse_function_literal(args.fun), "props input")
    _emit([property_report(f)], args.machine)
    return 0


def _cmd_fourier(args: argparse.Namespace) -> int:
    from .funcs import fourier, inverse_fourier

    fn = parse_function_literal(args.fun)
    if args.inverse:
        signed = fn.as_signed() if isinstance(fn, PBFunction) else fn
        out = inverse_fourier(signed)
    else:
        out = fourier(fn)
    _emit([("arity", out.arity), ("table", out.table)], args.machine)
    return 0


def _cmd_gadget(args: argparse.Namespace) -> int:
    from .gadgets import (
        approx_pin,
        extract_nonlsm_binary,
        make_up_down,
        normalize_unary,
        serialize_pps,
        symmetrize,
    )

    f = _require_function(parse_function_literal(args.fun), "gadget input")
    if args.construction == "updown":
        pair = make_up_down(f)
        record = [
            ("up", pair.up.table),
            ("down", pair.down.table),
            ("swapped", pair.swapped),
            ("up_formula", serialize_pps(pair.up_formula)),
            ("down_formula", serialize_pps(pair.down_formula)),
        ]
    elif args.construction == "symmetrize":
        if args.mode is None:
            raise ValueError("symmetrize needs --mode 1, 2, or 3")
        up = None
        if args.up is not None:
            up = _require_function(parse_function_literal(args.up), "--up")
        sym, report = symmetrize(f, args.mode, up)
        record = [("table", sym.table), report]
    elif args.construction == "extract":
        if args.fun2 is None:
            raise ValueError("extract needs --fun2")
        g = _require_function(parse_function_literal(args.fun2), "--fun2")
        got = extract_nonlsm_binary(f, g)
        record = [
            ("table", got.function.table),
            ("route", got.route),
            ("formula", serialize_pps(got.formula)),
        ]
    else:
        if args.eps is None:
            raise ValueError("pin needs --eps")
        normalized, scale = normalize_unary(f)
        pinned, power = approx_pin(normalized, parse_rational(args.eps))
        record = [("table", pinned.table), ("power", power), ("scale", scale)]
    _emit(record, args.machine)
    return 0


def _cmd_pinning(args: argparse.Namespace) -> int:
    from .gadgets import pinning_analysis, serialize_pps

    family = [_require_function(parse_function_literal(text), "pinning input") for text in args.fun]
    verdict = pinning_analysis(family)
    record = [("tag", verdict.tag), ("case", verdict.case)]
    if verdict.up is not None:
        record.append(("up", verdict.up.table))
    if verdict.down is not None:
        record.append(("down", verdict.down.table))
    if verdict.up_formula is not None:
        record.append(("up_formula", serialize_pps(verdict.up_formula)))
    if verdict.down_formula is not None:
        record.append(("down_formula", serialize_pps(verdict.down_formula)))
    if verdict.witness_index is not None:
        record.append(("witness", verdict.witness_index))
    _emit(record, args.machine)
    return 0


@_any_int_digits()
def _print_z(z: Fraction, machine: bool) -> None:
    if machine:
        _emit([("z", z)], True)
    else:
        print(z)


def _cmd_z_exact(args: argparse.Namespace) -> int:
    from .instances import parse, z_exact

    _print_z(z_exact(parse(_read_text(args.file))), args.machine)
    return 0


def _cmd_z_estimate(args: argparse.Namespace) -> int:
    from .instances import InstanceError, parse
    from .matching import EstimatorConfig, estimate_z_fpras

    inst = parse(_read_text(args.file))
    if not inst.constraints:
        raise InstanceError("estimator needs a single constraint function, got none")
    # The first constraint's table; estimate_z_fpras checks that every constraint holds it.
    f = inst.registry_map()[inst.constraints[0][1]]
    if isinstance(f, SignedTable):
        raise InstanceError("estimator needs a nonnegative function")
    cfg = EstimatorConfig(epsilon=parse_rational(args.epsilon), seed=args.seed)
    _print_z(estimate_z_fpras(f, inst, cfg), args.machine)
    return 0


def _cmd_holant_check(args: argparse.Namespace) -> int:
    from .instances import HolantInstance, InstanceError, parse

    inst = parse(_read_text(args.file))
    try:
        HolantInstance(inst.variables, inst.registry, inst.constraints)
        holant = True
    except InstanceError:
        holant = False
    _emit([("holant", holant)], args.machine)
    return 0


def _cmd_triangle_graph(args: argparse.Namespace) -> int:
    from .instances import HolantInstance, parse
    from .matching import build_triangle_graph, serialize_graph

    inst = parse(_read_text(args.file))
    graph = build_triangle_graph(HolantInstance(inst.variables, inst.registry, inst.constraints))
    with _any_int_digits():
        sys.stdout.write(serialize_graph(graph))
    return 0


# ---------------------------------------------------------------------------
# Parser assembly


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spincount",
        description="Classifiers, exact evaluators, gadget constructions, and the "
        "matching-based estimator for weighted Boolean counting.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, help_text: str, handler) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--machine", action="store_true", help="emit key=value records")
        p.set_defaults(handler=handler)
        return p

    p = add("classify", "two-spin hardness verdict for a binary function", _cmd_classify)
    p.add_argument("--fun", required=True, help="function literal")

    p = add("props", "structural property report for a function", _cmd_props)
    p.add_argument("--fun", required=True, help="function literal")

    p = add("fourier", "Fourier table of a function (or the inverse)", _cmd_fourier)
    p.add_argument("--fun", required=True, help="function literal")
    p.add_argument("--inverse", action="store_true", help="invert a coefficient table")

    p = add("gadget", "run a gadget construction", _cmd_gadget)
    p.add_argument("construction", choices=["updown", "symmetrize", "extract", "pin"])
    p.add_argument("--fun", required=True, help="function literal")
    p.add_argument("--fun2", help="second function literal (extract)")
    p.add_argument("--mode", type=int, help="symmetrize mode 1, 2, or 3")
    p.add_argument("--up", help="strictly increasing permissive unary (symmetrize mode 3)")
    p.add_argument("--eps", help="target off-pin mass (pin); pins toward the larger entry")

    p = add("pinning", "pinning analysis of a finite function family", _cmd_pinning)
    p.add_argument("--fun", action="append", required=True, help="family member (repeatable)")

    p = add("z-exact", "exact partition function of an instance file, by elimination", _cmd_z_exact)
    p.add_argument("file")

    p = add("z-estimate", "Z estimate, exact within the z-exact budget", _cmd_z_estimate)
    p.add_argument("file")
    p.add_argument("--epsilon", default="1/10", help="accuracy target, a rational")
    p.add_argument("--seed", type=int, default=0)

    p = add("holant-check", "report whether every variable occurs exactly twice", _cmd_holant_check)
    p.add_argument("file")

    p = add("triangle-graph", "emit the triangle multigraph of a holant instance", _cmd_triangle_graph)
    p.add_argument("file")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # InstanceError and GadgetError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

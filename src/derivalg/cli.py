"""Command-line front end.

Subcommands: `repl`, `run <file>`, and one-shot forms (`gb`, `member`,
`dim`, `mul`, `weyl`, `darboux`, `certificate`, `check ...`).  Global flags:
`--json` for machine-readable output, `--order lex|grevlex`, `--budget N`.

Exit codes: 0 success (including "false"/NotSimple answers), 1 parse or
name-resolution error, 2 mathematical precondition failure, 3 step-budget
exhaustion.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import parser as P
from .errors import (
    BudgetExceededError,
    ContextMismatchError,
    FieldMismatchError,
    ParseError,
    PreconditionError,
    ZeroPolynomialError,
)
from .groebner import DEFAULT_BUDGET, TermOrder
from .session import Session

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_BUDGET = 3


def _emit(record, human, as_json):
    if as_json:
        print(json.dumps(record))
    else:
        print(human)


def _emit_error(exc, as_json):
    kind = type(exc).__name__
    payload = {"error": {"kind": kind, "message": str(exc)}}
    if as_json:
        print(json.dumps(payload), file=sys.stderr)
    else:
        print(f"error [{kind}]: {exc}", file=sys.stderr)


def _classify(exc) -> int:
    if isinstance(exc, ParseError):
        return EXIT_PARSE
    if isinstance(exc, BudgetExceededError):
        return EXIT_BUDGET
    if isinstance(exc, (PreconditionError, ContextMismatchError,
                        FieldMismatchError, ZeroPolynomialError,
                        ZeroDivisionError, ValueError, KeyError, IndexError)):
        return EXIT_PRECONDITION
    raise exc


def _run_statements(session: Session, statements, as_json: bool) -> int:
    for stmt in statements:
        try:
            record, human = session.execute(stmt)
        except Exception as exc:  # noqa: BLE001 - classified below
            code = _classify(exc)
            _emit_error(exc, as_json)
            return code
        _emit(record, human, as_json)
    return EXIT_OK


def _session_from_args(args) -> Session:
    return Session(order=TermOrder(args.order), budget=args.budget)


def _script(session: Session, text: str, as_json: bool) -> int:
    try:
        statements = P.parse_session(text)
    except ParseError as exc:
        _emit_error(exc, as_json)
        return EXIT_PARSE
    return _run_statements(session, statements, as_json)


# -- subcommand implementations ---------------------------------------------


def _cmd_run(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        _emit_error(exc, args.json)
        return EXIT_PARSE
    return _script(_session_from_args(args), text, args.json)


def _cmd_repl(args) -> int:
    session = _session_from_args(args)
    stream = sys.stdin
    if stream.isatty():
        print("derivalg session; one statement per line, ctrl-d to quit",
              file=sys.stderr)
    for line in stream:
        try:
            stmt = P.parse_statement_line(line)
            if stmt is None:
                continue
            record, human = session.execute(stmt)
        except Exception as exc:  # noqa: BLE001
            _classify(exc)
            _emit_error(exc, args.json)
            continue
        _emit(record, human, args.json)
    return EXIT_OK


def _ring_script(spec: str) -> str:
    if not re.fullmatch(r"(QQ|GF\(\d+\))\[[^\]]+\]", spec.replace(" ", "")):
        raise ParseError(f"bad ring designator {spec!r} (use QQ[x,y] or GF(p)[x])")
    return f"ring R = {spec}"


def _cmd_gb(args) -> int:
    lines = [_ring_script(args.ring),
             "ideal I in R : " + ", ".join(args.generators),
             "gb I"]
    return _script(_session_from_args(args), "\n".join(lines), args.json)


def _cmd_member(args) -> int:
    suffix = " with cofactors" if args.cofactors else ""
    lines = [_ring_script(args.ring),
             "ideal I in R : " + ", ".join(args.generators),
             f"member {args.element} in I{suffix}"]
    return _script(_session_from_args(args), "\n".join(lines), args.json)


def _cmd_dim(args) -> int:
    lines = [_ring_script(args.ring),
             "ideal I in R : " + ", ".join(args.generators),
             "dim I"]
    return _script(_session_from_args(args), "\n".join(lines), args.json)


def _cmd_mul(args) -> int:
    if args.ring is not None:
        lines = [_ring_script(args.ring), f"mul {args.expr}"]
    else:
        lines = [f"weyl {args.weyl}", f"mul {args.expr}"]
    return _script(_session_from_args(args), "\n".join(lines), args.json)


def _cmd_weyl(args) -> int:
    return _script(_session_from_args(args), f"weyl {args.n}", args.json)


def _cmd_darboux(args) -> int:
    lines = ["ring R = QQ[x, y]", f"darboux {args.F} bound {args.bound}"]
    return _script(_session_from_args(args), "\n".join(lines), args.json)


def _cmd_certificate(args) -> int:
    lines = [_ring_script(args.ring)]
    if args.truncated:
        p_match = re.match(r"GF\((\d+)\)", args.ring.replace(" ", ""))
        if p_match is None:
            raise ParseError("--truncated needs a GF(p) ring")
        p = int(p_match.group(1))
        vars_part = args.ring[args.ring.index("["):]
        names = [v.strip() for v in vars_part.strip("[]").split(",")]
        gens = ", ".join(f"{v}^{p}" for v in names)
        lines += [f"ideal Itrunc in R : {gens}", "quotient T = R / Itrunc",
                  f"certificate {args.element} in T"]
    else:
        lines.append(f"certificate {args.element}")
    return _script(_session_from_args(args), "\n".join(lines), args.json)


def _check_der_lines(ring_name: str, ders) -> tuple:
    lines = []
    names = []
    for k, images in enumerate(ders, start=1):
        name = f"d{k}"
        lines.append(f"der {name} on {ring_name} : {images}")
        names.append(name)
    return lines, names


def _cmd_check(args) -> int:
    lines = []
    if args.what in ("commute", "dideal", "dsimple") and not args.derivations:
        raise ParseError(f"check {args.what} needs at least one --der")
    if args.what in ("commute", "dideal", "dsimple") and args.ring is None:
        raise ParseError(f"check {args.what} needs --ring")
    if args.what == "dideal" and not args.ideal:
        raise ParseError("check dideal needs at least one --ideal generator")
    if args.what == "commute":
        lines.append(_ring_script(args.ring))
        der_lines, names = _check_der_lines("R", args.derivations)
        if len(names) != 2:
            raise ParseError("check commute takes exactly two derivations")
        lines += der_lines
        lines.append(f"check commute {names[0]} {names[1]}")
    elif args.what == "dideal":
        lines.append(_ring_script(args.ring))
        lines.append("ideal I in R : " + ", ".join(args.ideal))
        der_lines, names = _check_der_lines("R", args.derivations)
        lines += der_lines
        lines.append("check dideal I " + " ".join(names))
    elif args.what == "dsimple":
        lines.append(_ring_script(args.ring))
        ring_name = "R"
        if args.ideal:
            lines.append("ideal I in R : " + ", ".join(args.ideal))
            lines.append("quotient Q = R / I")
            ring_name = "Q"
        der_lines, names = _check_der_lines(ring_name, args.derivations)
        lines += der_lines
        flag = " --dim1" if args.dim1 else ""
        lines.append(f"check dsimple {ring_name} " + " ".join(names) + flag)
    elif args.what == "simple":
        if args.weyl is not None:
            lines.append(f"weyl {args.weyl} as S")
        else:
            if args.ring is None or not args.skew_var or not args.derivations:
                raise ParseError(
                    "check simple needs --weyl N, or --ring with --skew-var/--der")
            lines.append(_ring_script(args.ring))
            base_name = "R"
            if args.ideal:
                lines.append("ideal I in R : " + ", ".join(args.ideal))
                lines.append("quotient Q = R / I")
                base_name = "Q"
            der_lines, names = _check_der_lines(base_name, args.derivations)
            lines += der_lines
            if len(args.skew_var) != len(names):
                raise ParseError("one --skew-var per --der is required")
            steps = "".join(f"[{v}; {d}]" for v, d in zip(args.skew_var, names))
            lines.append(f"skew S = {base_name}{steps}")
        lines.append("check simple S")
    return _script(_session_from_args(args), "\n".join(lines), args.json)


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="derivalg",
        description="exact computer algebra for derivations, differential "
                    "simplicity, and skew polynomial rings")
    top.add_argument("--json", action="store_true",
                     help="machine-readable JSON output, one object per line")
    top.add_argument("--order", choices=["lex", "grevlex"], default="grevlex",
                     help="term order for Groebner computations")
    top.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                     help="step budget for Groebner computations")
    sub = top.add_subparsers(dest="subcommand", required=True)

    run = sub.add_parser("run", help="execute a session file")
    run.add_argument("file")
    run.set_defaults(func=_cmd_run)

    repl = sub.add_parser("repl", help="interactive session on stdin")
    repl.set_defaults(func=_cmd_repl)

    gb = sub.add_parser("gb", help="reduced Groebner basis of an ideal")
    gb.add_argument("--ring", required=True, help="e.g. 'QQ[x, y]'")
    gb.add_argument("generators", nargs="+")
    gb.set_defaults(func=_cmd_gb)

    member = sub.add_parser("member", help="ideal membership by normal form")
    member.add_argument("--ring", required=True)
    member.add_argument("--element", required=True)
    member.add_argument("--cofactors", action="store_true")
    member.add_argument("generators", nargs="+")
    member.set_defaults(func=_cmd_member)

    dim = sub.add_parser("dim", help="Krull dimension of a quotient by an ideal")
    dim.add_argument("--ring", required=True)
    dim.add_argument("generators", nargs="+")
    dim.set_defaults(func=_cmd_dim)

    mul = sub.add_parser("mul", help="normal-form product of an expression")
    mul.add_argument("--weyl", type=int, default=1,
                     help="evaluate inside the n-th Weyl algebra (default 1)")
    mul.add_argument("--ring", help="evaluate in a commutative ring instead")
    mul.add_argument("expr")
    mul.set_defaults(func=_cmd_mul)

    weyl = sub.add_parser("weyl", help="describe the n-th Weyl algebra")
    weyl.add_argument("n", type=int)
    weyl.set_defaults(func=_cmd_weyl)

    darboux = sub.add_parser(
        "darboux", help="bounded Darboux-polynomial search for d/dx + F d/dy")
    darboux.add_argument("F")
    darboux.add_argument("--bound", type=int, required=True)
    darboux.set_defaults(func=_cmd_darboux)

    cert = sub.add_parser("certificate",
                          help="simplicity certificate for an element")
    cert.add_argument("--ring", required=True)
    cert.add_argument("--truncated", action="store_true",
                      help="work in GF(p)[x..]/(x^p..) instead of the full ring")
    cert.add_argument("element")
    cert.set_defaults(func=_cmd_certificate)

    check = sub.add_parser("check", help="run a named check")
    check.add_argument("what", choices=["commute", "dideal", "dsimple", "simple"])
    check.add_argument("--ring", help="e.g. 'QQ[x, y]'")
    check.add_argument("--ideal", action="append", default=[],
                       help="defining/ideal generator (repeatable)")
    check.add_argument("--der", dest="derivations", action="append", default=[],
                       help="derivation images, e.g. 'x -> -y, y -> x' (repeatable)")
    check.add_argument("--skew-var", action="append", default=[],
                       help="skew variable name for check simple (repeatable)")
    check.add_argument("--weyl", type=int, help="use the n-th Weyl algebra")
    check.add_argument("--dim1", action="store_true",
                       help="check dsimple: one derivation; Unknown unless the "
                            "ring has characteristic 0 and dimension 1")
    check.set_defaults(func=_cmd_check)

    return top


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        _emit_error(exc, args.json)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())

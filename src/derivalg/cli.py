"""Command-line front end.

Subcommands: `repl`, `run <file>`, and one-shot forms (`gb`, `member`,
`dim`, `mul`, `weyl`, `darboux`, `certificate`, `check ...`).  Global flags:
`--json` for machine-readable output, `--order lex|grevlex`, `--budget N`
(N >= 0).

Every subcommand but `repl` is a session script: `run` reads one from its
file, and each one-shot `_cmd_*` writes one from its arguments (`ring R =
...`, then `ideal I in R : ...`, derivations and the statement itself).
`main` runs it with `_script` on a fresh `Session`; `repl` runs each stdin
line the same way and goes on after an error.  `build_arg_parser` builds the
argparse tree once per process, and every `main` call reuses it.

Exit codes: 0 success (including "false"/NotSimple answers), 1 parse, usage
or name-resolution error, 2 mathematical precondition failure, 3 step-budget
exhaustion, 4 internal error (a bug in derivalg, not in the input).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from . import parser as P
from .errors import BudgetExceededError, ParseError, PreconditionError
from .groebner import DEFAULT_BUDGET, TermOrder
from .session import Session

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _emit(record, human, as_json):
    print(json.dumps(record) if as_json else human())


def _emit_error(exc, as_json, internal=False):
    kind = type(exc).__name__
    error = {"kind": kind, "message": str(exc)}
    if internal:
        import traceback  # loaded only when there is a bug to report
        error.update(internal=True,
                     traceback="".join(traceback.format_exception(exc)))
    if as_json:
        print(json.dumps({"error": error}), file=sys.stderr)
    else:
        if internal:
            sys.stderr.write(error["traceback"])
            kind = f"internal: {kind}"
        print(f"error [{kind}]: {exc}", file=sys.stderr)


def _classify(exc) -> int:
    if isinstance(exc, ParseError):
        return EXIT_PARSE
    if isinstance(exc, BudgetExceededError):
        return EXIT_BUDGET
    if isinstance(exc, PreconditionError):
        return EXIT_PRECONDITION
    return EXIT_INTERNAL


def _script(session: Session, text: str, as_json: bool) -> int:
    """Parse `text` whole, then run its statements up to the first error."""
    try:
        for stmt in P.parse_session(text):
            record, human = session.execute(stmt)
            _emit(record, human, as_json)
    except Exception as exc:  # noqa: BLE001 - classified below
        code = _classify(exc)
        _emit_error(exc, as_json, internal=code == EXIT_INTERNAL)
        return code
    return EXIT_OK


# -- subcommand scripts -----------------------------------------------------


def _cmd_run(args) -> list:
    with open(args.file, encoding="utf-8") as handle:
        return [handle.read()]


def _ring_match(spec: str) -> re.Match:
    # group 1 is p (None over QQ), group 2 the comma-separated variables
    match = re.fullmatch(r"(?:QQ|GF\((\d+)\))\[([^\]]+)\]", spec.replace(" ", ""))
    if match is None:
        raise ParseError(f"bad ring designator {spec!r} (use QQ[x,y] or GF(p)[x])")
    return match


def _ring_script(spec: str) -> str:
    _ring_match(spec)
    return f"ring R = {spec}"


def _ideal_lines(args) -> list:
    return [_ring_script(args.ring),
            "ideal I in R : " + ", ".join(args.generators)]


def _cmd_gb(args) -> list:
    return _ideal_lines(args) + ["gb I"]


def _cmd_member(args) -> list:
    suffix = " with cofactors" if args.cofactors else ""
    return _ideal_lines(args) + [f"member {args.element} in I{suffix}"]


def _cmd_dim(args) -> list:
    return _ideal_lines(args) + ["dim I"]


def _cmd_mul(args) -> list:
    weyl = 1 if args.weyl is None else args.weyl
    scope = f"weyl {weyl}" if args.ring is None else _ring_script(args.ring)
    return [scope, f"mul {args.expr}"]


def _cmd_weyl(args) -> list:
    return [f"weyl {args.n}"]


def _cmd_darboux(args) -> list:
    return ["ring R = QQ[x, y]", f"darboux {args.F} bound {args.bound}"]


def _cmd_certificate(args) -> list:
    # over GF(p) a certificate lives in the quotient by the p-th powers
    p, names = _ring_match(args.ring).groups()
    ring = f"ring R = {args.ring}"
    if p is None:
        return [ring, f"certificate {args.element}"]
    gens = ", ".join(f"{v}^{p}" for v in names.split(","))
    return [ring, f"ideal Itrunc in R : {gens}", "quotient T = R / Itrunc",
            f"certificate {args.element} in T"]


# the options each check reads; `check simple --weyl N` reads only --weyl
_CHECK_READS = {
    "commute": {"--ring", "--ideal", "--der"},
    "dideal": {"--ring", "--ideal", "--der"},
    "dsimple": {"--ring", "--ideal", "--der", "--dim1"},
    "simple": {"--ring", "--ideal", "--der", "--skew-var"},
}


def _cmd_check(args) -> list:
    what, ders = args.what, args.derivations
    given = {flag for flag, value in (
        ("--ring", args.ring is not None), ("--ideal", args.ideal),
        ("--der", ders), ("--skew-var", args.skew_var),
        ("--weyl", args.weyl is not None), ("--dim1", args.dim1)) if value}
    weyl = what == "simple" and args.weyl is not None
    unread = sorted(given - ({"--weyl"} if weyl else _CHECK_READS[what]))
    if unread:
        scope = f"check {what}" + (" --weyl" if weyl else "")
        raise ParseError(f"{scope} does not take {', '.join(unread)}")
    if weyl:
        return [f"weyl {args.weyl} as S", "check simple S"]
    if what != "simple":
        if not ders:
            raise ParseError(f"check {what} needs at least one --der")
        if args.ring is None:
            raise ParseError(f"check {what} needs --ring")
        if what == "dideal" and not args.ideal:
            raise ParseError("check dideal needs at least one --ideal generator")
    elif args.ring is None or not args.skew_var or not ders:
        raise ParseError(
            "check simple needs --weyl N, or --ring with --skew-var/--der")
    lines = [_ring_script(args.ring)]
    base = "R"
    if args.ideal:
        lines.append("ideal I in R : " + ", ".join(args.ideal))
        if what != "dideal":
            lines.append("quotient Q = R / I")
            base = "Q"
    names = [f"d{k}" for k in range(1, len(ders) + 1)]
    lines += [f"der {n} on {base} : {images}" for n, images in zip(names, ders)]
    if what == "commute":
        if len(names) != 2:
            raise ParseError("check commute takes exactly two derivations")
        lines.append(f"check commute {names[0]} {names[1]}")
    elif what == "dideal":
        lines.append("check dideal I " + " ".join(names))
    elif what == "dsimple":
        flag = " --dim1" if args.dim1 else ""
        lines.append(f"check dsimple {base} " + " ".join(names) + flag)
    else:
        if len(args.skew_var) != len(names):
            raise ParseError("one --skew-var per --der is required")
        steps = "".join(f"[{v}; {d}]" for v, d in zip(args.skew_var, names))
        lines += [f"skew S = {base}{steps}", "check simple S"]
    return lines


def _budget(text: str) -> int:
    """A --budget value: a non-negative int; 0 allows no step."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(
            f"the step budget must be a non-negative integer, not {text!r}")
    return int(text)


class _ArgumentParser(argparse.ArgumentParser):
    """Its usage errors, and its subparsers', are ParseErrors (exit 1)."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    top = _ArgumentParser(
        prog="derivalg",
        description="exact computer algebra for derivations, differential "
                    "simplicity, and skew polynomial rings")
    top.add_argument("--json", action="store_true",
                     help="machine-readable JSON output, one object per line")
    top.add_argument("--order", choices=["lex", "grevlex"], default="grevlex",
                     help="term order of printed bases, cofactors and quotient "
                          "normal forms; dim and every check compute in grevlex")
    top.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET,
                     help="step budget for Groebner computations and skew powers")
    sub = top.add_subparsers(dest="subcommand", required=True)

    run = sub.add_parser("run", help="execute a session file")
    run.add_argument("file")
    run.set_defaults(func=_cmd_run)

    sub.add_parser("repl", help="interactive session on stdin")

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
    scope = mul.add_mutually_exclusive_group()
    scope.add_argument("--weyl", type=int,
                       help="evaluate inside the n-th Weyl algebra (default 1)")
    scope.add_argument("--ring", help="evaluate in a commutative ring instead")
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
    cert.add_argument("--ring", required=True,
                      help="QQ[..], or GF(p)[..] for the quotient by the "
                           "p-th powers of the variables")
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
    # an exact tool reads and prints integers of any length: Python's limit
    # on int/str conversion is lifted while the CLI runs
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv) -> int:
    # a usage error after --json finds args.json already set
    args = argparse.Namespace(json=False)
    try:
        build_arg_parser().parse_args(argv, args)
        lines = [] if args.subcommand == "repl" else args.func(args)
        # pasted into a script line, a `#` or line break would end it early
        for line in lines if args.subcommand != "run" else ():
            if "#" in line or "\n" in line:
                raise ParseError(f"an argument holds '#' or a line break: {line!r}")
    except (ParseError, OSError) as exc:
        _emit_error(exc, args.json)
        return EXIT_PARSE
    session = Session(order=TermOrder(args.order), budget=args.budget)
    if args.subcommand == "repl":
        if sys.stdin.isatty():
            print("derivalg session; one statement per line, ctrl-d to quit",
                  file=sys.stderr)
        for line in sys.stdin:
            _script(session, line, args.json)
        return EXIT_OK
    return _script(session, "\n".join(lines), args.json)


if __name__ == "__main__":
    sys.exit(main())

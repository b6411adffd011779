"""End-to-end CLI behavior: subcommands, exit codes, JSON determinism."""

import json
import pathlib
import subprocess
import sys

import pytest

DATA = pathlib.Path(__file__).parent / "data"


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "derivalg", *args],
        capture_output=True, text=True, input=stdin, timeout=300)


def test_weyl_mul_json():
    out = run_cli("--json", "mul", "--weyl", "1", "x * y")
    assert out.returncode == 0
    records = [json.loads(line) for line in out.stdout.splitlines()]
    assert records[-1]["result"]["str"] == "y*x + 1"


def test_mul_in_commutative_ring():
    out = run_cli("mul", "--ring", "QQ[x, y]", "(x + y)^2")
    assert out.returncode == 0
    assert "x^2 + 2*x*y + y^2" in out.stdout


def test_gb_subcommand():
    out = run_cli("--json", "--order", "lex", "gb", "--ring", "QQ[x, y]",
                  "x*y - 1", "y^2 - 1")
    assert out.returncode == 0
    record = json.loads(out.stdout.splitlines()[-1])
    assert record["basis"] == ["x - y", "y^2 - 1"]
    assert record["order"] == "lex"


def test_member_subcommand_with_cofactors():
    out = run_cli("--json", "member", "--ring", "QQ[x, y]",
                  "--element", "x^2", "--cofactors", "x")
    assert out.returncode == 0
    record = json.loads(out.stdout.splitlines()[-1])
    assert record["member"] is True
    assert record["cofactors"] == [{"basis_element": "x", "cofactor": "x"}]
    assert record["remainder"] == "0"


def test_dim_subcommand():
    out = run_cli("--json", "dim", "--ring", "QQ[x1, x2]", "x1^2 + x2^2 - 1")
    record = json.loads(out.stdout.splitlines()[-1])
    assert record["dimension"] == 1


def test_weyl_subcommand():
    out = run_cli("--json", "weyl", "2")
    record = json.loads(out.stdout.splitlines()[-1])
    assert record["base_variables"] == ["y1", "y2"]
    assert record["skew_variables"] == ["x1", "x2"]


def test_darboux_subcommand():
    out = run_cli("--json", "darboux", "y", "--bound", "3")
    record = json.loads(out.stdout.splitlines()[-1])
    assert record["status"] == "found"
    assert record["h"] == "y" and record["cofactor"] == "1"

    out = run_cli("--json", "darboux", "y^2 + x", "--bound", "3")
    record = json.loads(out.stdout.splitlines()[-1])
    assert record["status"] == "none_up_to_bound"


@pytest.mark.parametrize("F,bound,cofactor", [
    ("x^2*y", 1, "x^2"), ("x^5*y", 1, "x^5"), ("x^5*y", 2, "x^5")])
def test_darboux_subcommand_cofactor_above_the_bound(F, bound, cofactor):
    # the cofactor's degree is deg F - 1, whatever the bound on h
    out = run_cli("darboux", F, "--bound", str(bound))
    assert out.returncode == 0
    assert out.stdout.splitlines()[-1] == \
        f"darboux: found h = y, cofactor = {cofactor}"


def test_darboux_subcommand_past_an_irrational_pivot():
    out = run_cli("--json", "darboux", "4*x^2*y^2 + 4*x^2", "--bound", "3")
    assert out.returncode == 0
    record = json.loads(out.stdout.splitlines()[-1])
    assert record["h"] == "y^2 + 1" and record["cofactor"] == "8*x^2*y"


def test_certificate_subcommand():
    out = run_cli("--json", "certificate", "--ring", "QQ[x1, x2]",
                  "x1^2*x2 + 3*x1")
    record = json.loads(out.stdout.splitlines()[-1])
    assert record["word"] == ["x1", "x1", "x2"]
    assert record["constant"] == "2"


def test_certificate_truncated():
    # a GF(p) ring certifies in its quotient by the p-th powers
    out = run_cli("--json", "certificate", "--ring", "GF(3)[x]", "2*x + x^2")
    assert out.returncode == 0
    records = [json.loads(line) for line in out.stdout.splitlines()]
    assert [r["command"] for r in records] == [
        "ring", "ideal", "quotient", "certificate"]
    assert records[-1]["word"] == ["x", "x"]
    assert records[-1]["constant"] == "2"
    out = run_cli("certificate", "--ring", "GF(3)[x]", "--truncated", "x")
    assert out.returncode == 2 and "unrecognized arguments: --truncated" in out.stderr


def test_check_commute_false_with_witness_exits_zero():
    out = run_cli("--json", "check", "commute", "--ring", "QQ[y1, y2]",
                  "--der", "y1 -> y2, y2 -> 0", "--der", "y1 -> 0, y2 -> y1")
    assert out.returncode == 0
    record = json.loads(out.stdout.splitlines()[-1])
    assert record["commute"] is False
    assert record["witness"] == {"generator": "y1", "image": "-y1"}


def test_check_dideal():
    out = run_cli("--json", "check", "dideal", "--ring", "QQ[x, y, z]",
                  "--ideal", "x^2 + y^2 + z^2 - 1",
                  "--der", "x -> y + z, y -> z - x, z -> -x - y",
                  "--der", "x -> y + 2*z, y -> x*y*z - x, z -> -x*y^2 - 2*x")
    assert out.returncode == 0
    record = json.loads(out.stdout.splitlines()[-1])
    assert record["d_ideal"] is True


def test_check_dsimple_circle():
    out = run_cli("--json", "check", "dsimple", "--ring", "QQ[x1, x2]",
                  "--ideal", "x1^2 + x2^2 - 1",
                  "--der", "x1 -> -x2, x2 -> x1", "--dim1")
    record = json.loads(out.stdout.splitlines()[-1])
    assert record["status"] == "Simple"
    assert record["criterion"] == "dimension-1 unit-ideal criterion"


def test_check_dsimple_charp():
    out = run_cli("--json", "check", "dsimple", "--ring", "GF(2)[x]",
                  "--der", "x -> 1")
    record = json.loads(out.stdout.splitlines()[-1])
    assert record["status"] == "NotSimple"
    assert record["witness"] == ["x^2"]


def test_check_dsimple_nilpotent_base_not_simple():
    # (y) is a stable ideal of QQ[x, y]/(y^2) under d/dx
    for extra in ((), ("--dim1",)):
        out = run_cli("--json", "check", "dsimple", "--ring", "QQ[x, y]",
                      "--ideal", "y^2", "--der", "x -> 1, y -> 0", *extra)
        assert out.returncode == 0
        record = json.loads(out.stdout.splitlines()[-1])
        assert record["status"] == "NotSimple"
        assert record["witness"] == ["y", "y^2"]


def test_check_dsimple_polynomial_ring_one_partial():
    out = run_cli("--json", "check", "dsimple", "--ring", "QQ[x, y]",
                  "--der", "x -> 1, y -> 0")
    assert out.returncode == 0
    record = json.loads(out.stdout.splitlines()[-1])
    assert record["status"] == "NotSimple"
    assert record["witness"] == ["y"]


def test_acceptance_transcript_matches_golden():
    session = str(DATA / "acceptance_session.dsl")
    for flags, golden in (((), "acceptance_transcript.txt"),
                          (("--json",), "acceptance_transcript.jsonl")):
        out = run_cli(*flags, "run", session)
        assert out.returncode == 0
        assert out.stdout == (DATA / golden).read_text()


_DEPENDENT_SKEW_ARGS = [
    ("--ring", "QQ[x, y]", "--skew-var", "t1", "--der", "x -> 1, y -> 0",
     "--skew-var", "t2", "--der", "x -> 0, y -> 1",
     "--skew-var", "t3", "--der", "x -> 1, y -> 1"),
    ("--ring", "QQ[x1, x2]", "--ideal", "x1^2 + x2^2 - 1",
     "--skew-var", "t1", "--der", "x1 -> -x2, x2 -> x1",
     "--skew-var", "t2", "--der", "x1 -> -2*x2, x2 -> 2*x1"),
    ("--ring", "QQ[y]", "--skew-var", "s1", "--der", "y -> 1",
     "--skew-var", "s2", "--der", "y -> 1"),
]


@pytest.mark.parametrize("args, central",
                         zip(_DEPENDENT_SKEW_ARGS,
                             ["-t1 - t2 + t3", "-2*t1 + t2", "-s1 + s2"]),
                         ids=["plane", "circle", "line"])
def test_check_simple_dependent_derivations(args, central):
    # each witness is central, of skew degree 1: S is not simple
    out = run_cli("--json", "check", "simple", *args)
    assert out.returncode == 0
    record = json.loads(out.stdout.splitlines()[-1])
    assert record["status"] == "NotSimple"
    assert record["witness"] == [central]


@pytest.mark.parametrize("args, line", [
    (("--ring", "QQ[x]", "--ideal", "x^2 + 1", "--skew-var", "t", "--der", "x -> 0"),
     "NotSimple witness (t) [constant relation among D]"),
    (("--ring", "QQ[x]", "--skew-var", "t", "--der", "x -> 0"),
     "NotSimple witness (t) [constant relation among D]"),
    (("--ring", "GF(5)[y]", "--skew-var", "s1", "--der", "y -> 1",
      "--skew-var", "s2", "--der", "y -> 1"),
     "NotSimple witness (4*s1 + s2) [constant relation among D]"),
    (("--ring", "GF(5)[y]", "--skew-var", "s", "--der", "y -> 1"),
     "NotSimple witness (y^5) [positive Krull dimension in characteristic p]"),
], ids=["zero-der-quotient", "zero-der-line", "GF5-two-copies", "GF5-one"])
def test_check_simple_for_any_m_and_characteristic(args, line):
    out = run_cli("check", "simple", *args)
    assert out.returncode == 0
    assert out.stdout.splitlines()[-1] == f"check simple: {line}"


def test_check_dsimple_charp_witness_without_repeats():
    out = run_cli("check", "dsimple", "--ring", "GF(5)[x, y]", "--ideal", "x^5",
                  "--der", "x -> 1, y -> 0")
    assert out.returncode == 0
    assert out.stdout.splitlines()[-1] == (
        "check dsimple: NotSimple witness (y^5, x^5) "
        "[positive Krull dimension in characteristic p]")


def test_integers_past_the_int_digit_limit():
    # Python refuses int/str conversions past 4300 digits; the CLI does not
    out = run_cli("--json", "mul", "--ring", "QQ[x]", "10^5000*x")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])["result"]
    assert result["str"] == "1" + "0" * 5000 + "*x"
    literal = "9" * 5000
    out = run_cli("mul", "--ring", "QQ[x]", f"{literal}*x + 1")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == f"mul: {literal}*x + 1"


def test_int_digit_limit_is_restored_after_main(capsys):
    from derivalg import cli

    limit = sys.get_int_max_str_digits()
    assert cli.main(["mul", "--ring", "QQ[x]", "10^5000*x"]) == 0
    assert sys.get_int_max_str_digits() == limit
    assert capsys.readouterr().out.endswith("0*x\n")


def test_check_simple_weyl():
    out = run_cli("--json", "check", "simple", "--weyl", "1")
    record = json.loads(out.stdout.splitlines()[-1])
    assert record["status"] == "Simple"
    assert record["criterion"]


def test_check_simple_negative():
    out = run_cli("--json", "check", "simple", "--ring", "QQ[y]",
                  "--skew-var", "x", "--der", "y -> y")
    assert out.returncode == 0
    record = json.loads(out.stdout.splitlines()[-1])
    assert record["status"] == "NotSimple"
    assert record["witness"] == ["y"]


def test_check_missing_arguments_fail_cleanly():
    out = run_cli("check", "dsimple", "--ring", "QQ[y]")
    assert out.returncode == 1
    assert "needs at least one --der" in out.stderr
    out = run_cli("check", "dideal", "--der", "y -> 1")
    assert out.returncode == 1
    assert "needs --ring" in out.stderr
    out = run_cli("check", "dideal", "--ring", "QQ[y]", "--der", "y -> 1")
    assert out.returncode == 1
    assert "needs at least one --ideal" in out.stderr


def test_check_simple_quotient_base_via_cli():
    out = run_cli("--json", "check", "simple", "--ring", "QQ[x1, x2]",
                  "--ideal", "x1^2 + x2^2 - 1", "--skew-var", "t",
                  "--der", "x1 -> -x2, x2 -> x1")
    assert out.returncode == 0
    record = json.loads(out.stdout.splitlines()[-1])
    assert record["status"] == "Simple"
    assert record["criterion"] == "dimension-1 unit-ideal criterion"


def test_exit_code_parse_error(tmp_path):
    bad = tmp_path / "bad.dsl"
    bad.write_text("ring R = QQ[x y]\n")
    out = run_cli("run", str(bad))
    assert out.returncode == 1
    assert "line 1" in out.stderr


def test_exit_code_unknown_identifier(tmp_path):
    script = tmp_path / "s.dsl"
    script.write_text("ring R = QQ[x, y]\nmul (t^2 + x*t) * (y*t)\n")
    out = run_cli("run", str(script))
    assert out.returncode == 1
    assert "unknown identifier 't'" in out.stderr


def test_exit_code_precondition_failure():
    out = run_cli("check", "simple", "--ring", "QQ[y1, y2]",
                  "--skew-var", "t1", "--der", "y1 -> y2, y2 -> 0",
                  "--skew-var", "t2", "--der", "y1 -> 0, y2 -> y1")
    assert out.returncode == 2
    assert "do not commute" in out.stderr


CIRCLE = "ring R = QQ[x, y]\nideal I in R : x^2 + y^2 - 1\nquotient Q = R / I\n"


@pytest.mark.parametrize("script, code, kind, error", [
    (CIRCLE + "certificate x in Q", 2, "PreconditionError",
     "characteristic-0 certificates need the full polynomial ring"),
    ("ring R = GF(3)[x]\ncertificate x in R", 2, "PreconditionError",
     "characteristic-p certificates need the quotient by the p-th powers of "
     "the variables"),
    ("weyl 1\ncertificate x in A1", 2, "PreconditionError",
     "certificates live in commutative rings"),
    (CIRCLE + "darboux y bound 1 in Q", 2, "PreconditionError",
     "Darboux search runs over a polynomial ring"),
    (CIRCLE + "der d1 on Q : x -> -y, y -> x\nder d2 on Q : x -> y, y -> -x\n"
     "check dsimple Q d1 d2 --dim1", 2, "PreconditionError",
     "the dimension-1 criterion takes a single derivation"),
    (CIRCLE + "der d on R : x -> -y, y -> x\ncheck dsimple Q d", 2,
     "PreconditionError", "derivation does not live on ring 'Q'"),
    # commutative and skew rings share one namespace
    ("ring R = QQ[x]\nder d on R : x -> 1\nskew R = R[t; d]", 1, "ParseError",
     "line 3, col 1: skew ring 'R' is already defined"),
    ("weyl 1\nring A1 = QQ[x]", 1, "ParseError",
     "line 2, col 1: ring 'A1' is already defined"),
])
def test_session_refusals(tmp_path, capsys, script, code, kind, error):
    from derivalg import cli
    path = tmp_path / "s.dsl"
    path.write_text(script + "\n")
    assert cli.main(["run", str(path)]) == code
    assert capsys.readouterr().err == f"error [{kind}]: {error}\n"


def test_exit_code_budget_exhaustion():
    out = run_cli("--budget", "0", "--order", "lex", "gb",
                  "--ring", "QQ[x, y]", "x*y - 1", "y^2 - 1")
    assert out.returncode == 3


def test_no_partial_execution_on_parse_failure(tmp_path):
    script = tmp_path / "s.dsl"
    script.write_text("ring R = QQ[x]\nthis is not a statement\n")
    out = run_cli("run", str(script))
    assert out.returncode == 1
    assert out.stdout == ""  # nothing executed


def test_repl_reads_stdin():
    out = run_cli("repl", stdin="weyl 1\nmul x * y\n")
    assert out.returncode == 0
    assert "y*x + 1" in out.stdout


def test_repl_continues_after_error():
    out = run_cli("repl", stdin="weyl 1\nmul nope\nmul x * y\n")
    assert out.returncode == 0
    assert "y*x + 1" in out.stdout
    assert "unknown identifier 'nope'" in out.stderr


def test_session_replay_byte_identical():
    session_file = DATA / "acceptance_session.dsl"
    first = run_cli("--json", "run", str(session_file))
    second = run_cli("--json", "run", str(session_file))
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # nonempty


def test_reused_arg_parser_leaks_no_state(capsys):
    # one process, one argparse tree: repeated --der/--ideal/--skew-var
    # lists, interleaved with calls that omit them, print what a fresh
    # process prints
    from derivalg import cli
    argvs = [
        ["check", "dsimple", "--ring", "QQ[x1, x2]",
         "--ideal", "x1^2 + x2^2 - 1", "--der", "x1 -> -x2, x2 -> x1"],
        ["check", "simple", "--weyl", "1"],
        ["--json", "check", "simple", "--ring", "QQ[y1, y2]",
         "--skew-var", "t1", "--der", "y1 -> 1",
         "--skew-var", "t2", "--der", "y2 -> 1"],
        ["check", "dsimple", "--ring", "QQ[y]"],
        ["check", "dideal", "--ring", "QQ[x, y]", "--ideal", "x",
         "--ideal", "y", "--der", "x -> x, y -> y", "--der", "x -> y"],
        ["weyl", "1"],
        ["check", "simple", "--ring", "QQ[y]", "--skew-var", "x",
         "--der", "y -> y"],
        ["check", "dideal", "--ring", "QQ[y]", "--der", "y -> 1"],
    ]
    for argv in argvs:
        code = cli.main(argv)
        out = capsys.readouterr()
        fresh = run_cli(*argv)
        assert (code, out.out, out.err) == \
            (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert cli.build_arg_parser() is cli.build_arg_parser()


TWO_LINES_SESSION = """\
ring R = QQ[x, y]
ideal I in R : y^2 - 81
quotient Q = R / I
der d0 on R : x -> 1, y -> (4*x - 6)*(y^2 - 81)
der d on Q : x -> 1, y -> (4*x - 6)*(y^2 - 81)
apply d 8*x*y - 2*x - 1*y^2
check dideal I d0
dim I
check dsimple Q d --dim1
ideal J in R : y^2 - 81, x - 7*y - 4
gb J
member (-6)*(x - 1) in J with cofactors
member 1*x*y + 9*y^2 - 1*y in J with cofactors
skew S = Q[t; d]
check simple S
certificate -3*x*y + 5*x + 8*y^3 - 5*y in R
darboux y^2 + 2*x bound 2 in R
"""


def test_two_lines_session_is_not_certified_simple(tmp_path, capsys):
    # y^2 - 81 is two parallel lines: (y - 9) + I is a proper stable ideal,
    # so neither R nor R[t; d] may be reported Simple
    from derivalg import cli
    script = tmp_path / "two_lines.dsl"
    script.write_text(TWO_LINES_SESSION)
    assert cli.main(["run", str(script)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "check dsimple: Unknown (primality not certified)" in lines
    assert "check simple: Unknown (primality not certified)" in lines
    assert not any("Simple [" in line for line in lines)


def test_check_dsimple_skips_generators_zero_modulo_the_ideal():
    # d(x) = 0 lies in I = (x): it is no witness, and the unit ideal decides
    out = run_cli("check", "dsimple", "--ring", "QQ[x, y]", "--ideal", "x",
                  "--der", "x -> 0, y -> 1")
    assert out.returncode == 0
    assert out.stdout.splitlines()[-1] == \
        "check dsimple: Simple [dimension-1 unit-ideal criterion]"


def test_check_dsimple_two_parallel_lines_cli():
    out = run_cli("check", "dsimple", "--ring", "QQ[x, y]", "--ideal", "y^2 - 1",
                  "--der", "x -> 1, y -> 0")
    assert out.returncode == 0
    assert out.stdout.splitlines()[-1] == \
        "check dsimple: Unknown (primality not certified)"


def test_exit_code_internal_error(monkeypatch, capsys):
    # an exception the CLI does not classify is a bug: exit 4, not 1
    from derivalg import cli
    from derivalg.session import Session

    def broken(self, stmt):
        raise KeyError("boom")

    monkeypatch.setattr(Session, "execute", broken)
    assert cli.main(["weyl", "1"]) == cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert err.endswith("\nKeyError: 'boom'\nerror [internal: KeyError]: 'boom'\n")
    assert cli.main(["--json", "weyl", "1"]) == 4
    error = json.loads(capsys.readouterr().err)["error"]
    assert error.pop("traceback").endswith("KeyError: 'boom'\n")
    assert error == {"kind": "KeyError", "message": "'boom'", "internal": True}


@pytest.mark.parametrize("exc", [ValueError("max() arg is an empty sequence"),
                                 ZeroDivisionError("division by zero")])
def test_builtin_value_and_zero_division_errors_are_internal(monkeypatch, capsys,
                                                             exc):
    # only the library's own error types are refused input; a bare builtin
    # raised inside a statement is a bug: exit 4 with its traceback
    from derivalg import cli
    from derivalg.session import Session

    def broken(self, stmt):
        raise exc

    monkeypatch.setattr(Session, "execute", broken)
    assert cli.main(["weyl", "1"]) == cli.EXIT_INTERNAL
    err = capsys.readouterr().err
    kind = type(exc).__name__
    assert err.startswith("Traceback (most recent call last):")
    assert err.endswith(f"\n{kind}: {exc}\nerror [internal: {kind}]: {exc}\n")


def test_der_with_a_repeated_generator_is_a_parse_error():
    out = run_cli("check", "dsimple", "--ring", "QQ[x]", "--der", "x -> 1, x -> 2")
    assert out.returncode == 1
    assert "'x' is given two images" in out.stderr
    assert "check dsimple" not in out.stdout


@pytest.mark.parametrize("args, message", [
    (("gb", "--ring", "GF(4)[x]", "x"), "modulus 4 is not a prime"),
    (("gb", "--ring", "QQ[x, x]", "x"), "duplicate variable names"),
    (("gb", "--ring", "GF(5)[x]", "1/5*x"), "denominator 5 vanishes in GF(5)"),
    (("weyl", "0"), "the Weyl algebra index must be at least 1"),
    (("check", "simple", "--ring", "QQ[x]", "--skew-var", "x", "--der", "x -> 1"),
     "skew variable names collide with base variables"),
    (("check", "simple", "--ring", "QQ[x]", "--skew-var", "t", "--der", "x -> 1",
      "--skew-var", "t", "--der", "x -> 1"),
     "skew variable names must be distinct and nonempty"),
    (("gb", "--ring", "GF(3317044064679887385961981)[x]", "x"),
     "is past 3317044064679887385961981, the primality test's bound"),
])
def test_exit_code_of_value_and_zero_division_errors(args, message):
    # refused input raises a PreconditionError that is also a ValueError or
    # a ZeroDivisionError: exit 2
    out = run_cli(*args)
    assert out.returncode == 2
    assert message in out.stderr

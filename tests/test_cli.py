import contextlib
import functools
import io
import itertools
import json
import operator
import re
import shlex
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seifert_orbifolds import classify, cli
from seifert_orbifolds.classify import diffeo_key
from seifert_orbifolds.cli import (
    ParseError,
    build_parser,
    expression_report,
    parse_base,
    parse_fibration,
    run_command,
)
from seifert_orbifolds.core import FiberedOrbifold, Surface, TwoOrbifold, normalize, solve_xi
from seifert_orbifolds.groups import enumerate_quotient_groups, quotient_hopf
from test_fuzz import COMMANDS, argvs, fibration_texts
from test_readme import _block


_ATLAS_ROW = re.compile(
    r"class (\d+): (\S+) order=(\d+) (hopf|anti-hopf) quotient=(\(.*\)) "
    r"(?:fibrations=\[(.*)\]|key=(\{.*\}))"
)


def run(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(list(argv))
    return code, out.getvalue().rstrip("\n"), err.getvalue()


class TestParser:
    def test_sphere_four_fields(self):
        f = parse_fibration("S2(2,2,3); 1/2,1/2,1/3; ; -4/3")
        assert str(normalize(f)) == "(S2(2,2,3); 1/2,1/2,1/3; -4/3)"

    def test_disk_full(self):
        f = parse_fibration("D2(;2,2,4); ; 3/4,1/2,0/2; -1/8; 1")
        from seifert_orbifolds import parse_group
        assert normalize(f) == quotient_hopf(parse_group("F12(m=1,n=2)"))

    def test_bare_disk(self):
        f = parse_fibration("D2; ; ; -1; 0")
        assert f.base.surface is Surface.DISK and f.euler == -1 and f.xi == (0,)

    def test_xi_solved_when_omitted(self):
        f = parse_fibration("D2(3;2); 1/3; 1/2; -1/12")
        assert f.xi == (1,)

    def test_xi_unsolvable_is_error(self):
        with pytest.raises(ParseError):
            parse_fibration("D2(;3); ; 1/3; -1/2")

    def test_count_mismatch(self):
        with pytest.raises(ParseError, match="count mismatch"):
            parse_fibration("S2(2,2,3); 1/2,1/2; ; -1")

    def test_position_in_errors(self):
        with pytest.raises(ParseError, match="position"):
            parse_fibration("S2(2,2,3); 1/2,x,1/3; ; -1")

    def test_plain_invariant_rejected(self):
        with pytest.raises(ParseError):
            parse_fibration("S2(2); 1; ; -1/2")

    def test_order_one_points_merge(self):
        f = parse_fibration("S2(1,2,2); 0/1,1/2,1/2; ; -1")
        g = parse_fibration("S2(2,2); 1/2,1/2; -1")
        assert normalize(f) == normalize(g)

    @pytest.mark.parametrize(
        "text",
        [
            "S2(\u0663,2,2); 0/2,0/2,1/3; ; -1/3",  # Arabic-Indic label digit
            "S2(2,2,3); 0/2,0/2,\u0661/3; ; -1/3",  # Arabic-Indic invariant digit
            "S2(2,2,3); 0/2,0/2,1/\uff13; ; -1/3",  # fullwidth invariant digit
            "S2(2,2,3); 0/2,0/2,1/3; ; -1/\u0663",  # Arabic-Indic Euler class digit
            "S2(2,2); 0/2,0/2; ; -1e3",  # exponent
            "S2(2,2); 0/2,0/2; ; -1_000",  # digit separator
            "S2(2,2); 0/2,0/2; ; -1.0",  # decimal point
            "S2(2,2,3); 0/2,0/2,1/3_0; ; -1/3",  # separator in an invariant
            "S2(2,2,3); 0/2,0/2,1/-3; ; -1/3",  # signed invariant order
        ],
        ids=["label", "invariant", "fullwidth", "euler", "exponent", "separator",
             "decimal", "invariant-separator", "signed-order"],
    )
    def test_non_ascii_integer_forms_rejected(self, text):
        with pytest.raises(ParseError, match="position"):
            parse_fibration(text)
        code, out, err = run("classify", text)
        assert code == 1 and not out and "position" in err

    def test_invariant_order_zero_is_positioned(self):
        with pytest.raises(ParseError, match="position 7: invariant order must be >= 1"):
            parse_fibration("S2(2); 1/0; ; -1")
        code, out, err = run("classify", "D2; ; 1/0; -1; 0")
        assert code == 1 and not out and "position 6" in err

    @pytest.mark.parametrize("text, message", [
        ("S2(2,2,3); 1/2,1/2,x/3; ; -1", "position 19: bad invariant 'x/3'"),
        ("S2(2,2,y); 1/2,1/2,1/3; ; -1", "position 7: expected a label, got 'y'"),
        ("D2(2, 0;0); ; ; -1; 0", "position 6: singularity labels must be positive "
                                  "integers, got 0"),
        ("   S2(2); x/2; -1", "position 10: bad invariant 'x/2'"),
        ("  T2; ; -1", "position 2: unknown base 'T2'"),
        ("(S2(2); 1/0; ; -1)", "position 8: invariant order must be >= 1, got '1/0'"),
        (" ( S2(2); 1/2; ;  -1/0 ) ", "position 18: bad rational '  -1/0 '"),
        ("(D2(;2); ; 1/2; -1/4;  2)", "position 23: xi must be 0 or 1, got '2'"),
        ("S2(2); 1/2;  1/2; -1", "position 13: S2 bases carry no corner reflectors"),
        ("  S2(2)); 1/2; -1", "position 7: unbalanced ')'"),
        ("S2; ; -1 0", "position 6: bad rational ' -1 0'"),
        ("S2(2); 1/2; - 1 2", "position 12: bad rational ' - 1 2'"),
        ("S2(2); 1/2; -1/2 0", "position 12: bad rational ' -1/2 0'"),
        ("S2(2); 1\t/2; -1/2", "position 7: bad invariant '1\\t/2'"),
    ], ids=["invariant", "label", "zero-label", "padded", "padded-base", "parenthesized",
            "padded-parenthesized", "xi", "corners", "padded-close", "euler-split-digits",
            "euler-split-after-sign", "euler-split-denominator", "invariant-tab"])
    def test_error_position_is_the_bad_piece(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_fibration(text)
        assert str(info.value) == message
        assert run("validate", text) == (1, "", "error: %s\n" % message)

    def test_signs_and_spaces_accepted(self):
        f = parse_fibration("S2(2,2,3); +1/2, 1 / 2 ,1/3; ; - 4 / 3")
        assert str(normalize(f)) == "(S2(2,2,3); 1/2,1/2,1/3; -4/3)"
        # an invariant takes a space after its sign as the Euler class does
        f = parse_fibration("S2(2,2,3); - 1/2, 1 / 2 ,1/3; ; - 4 / 3")
        assert f == parse_fibration("S2(2,2,3); -1/2,1/2,1/3; ; -4/3")

    def test_base_only(self):
        assert parse_base("D2(;2,2,4)").corner_labels == (2, 2, 4)
        assert parse_base("RP2(3)").cone_labels == (3,)
        with pytest.raises(ParseError):
            parse_base("T2(3)")


class TestCommands:
    def test_classify(self):
        code, out, _ = run("classify", "S2(2,2,4); 0/2,0/2,2/4; ; -1/2")
        assert code == 0 and out == "spherical; fibrations: 3"

    def test_diffeo_exit_codes(self):
        code, out, _ = run("diffeo", "S2(2,2); 0/2,0/2; ; -1", "D2; ; ; -1; 0")
        assert code == 0 and out == "diffeomorphic"
        code, out, _ = run(
            "diffeo", "S2(2,3,5); 1/2,1/3,1/5; ; -1/30",
            "S2(2,3,5); 1/2,1/3,1/5; ; -31/30",
        )
        assert code == 3 and out == "not diffeomorphic"
        code, _, err = run("diffeo", "S2(2,2); nonsense", "D2; ; ; -1; 0")
        assert code == 1

    def test_quotient(self):
        code, out, _ = run("quotient", "F5(m=2)")
        assert code == 0 and out == "(S2(2,3,3); 0/2,2/3,2/3; -1/3)"
        code, out, _ = run("quotient", "F2(m=3,n=2)", "--anti-hopf")
        assert code == 0 and out == "(RP2(3); 1/3; 2/3)"
        code, _, _ = run("quotient", "F20")
        assert code == 0

    def test_quotient_non_ascii_parameter_exits_1(self):
        code, out, err = run("quotient", "F2(m=\u0663,n=2)")
        assert code == 1 and not out and "ASCII digits" in err

    def test_quotient_unknown_family_exits_1(self):
        assert run("quotient", "F99") == (1, "", "error: unknown family 'F99'\n")

    def test_quotient_unsupported_family_exits_2(self):
        code, _, err = run("quotient", "F1(m=1,n=2,r=3,s=1)")
        assert code == 2
        code, _, _ = run("quotient", "F11(m=1,n=2,r=3,s=1)")
        assert code == 2

    def test_validate_exit_code(self):
        code, out, _ = run("validate", "S2(2,2,3); 0/2,0/2,1/3; ; -1/2")
        assert code == 1 and "residue -1/6" in out
        code, out, _ = run("validate", "S2(2,2,3); 1/3,1/2,1/2; ; -1/3")
        assert code == 0

    def test_chi(self):
        code, out, _ = run("chi", "D2(;2,2,4)")
        assert code == 0 and out == "chi(D2(;2,2,4)) = 1/8"

    def test_lens(self):
        code, out, _ = run("lens", "S2(4,4); 2/4,2/4; ; -1")
        assert code == 0 and out == "L(4,3)"
        code, _, _ = run("lens", "S2(2,3,5); 1/2,1/3,1/5; ; -1/30")
        assert code == 1

    @pytest.mark.parametrize("command", [
        ["lens"], ["diffeo"], ["fibrations"], ["--json", "fibrations"],
    ])
    def test_guard_messages(self, command):
        # lens, diffeo and fibrations in both modes share the classify
        # guard and its wording
        good = "S2(2,2); 0/2,0/2; ; -1"
        for bad, message in (
            ("S2(2,2,3); 0/2,0/2,1/3; ; -1/2",
             "invalid fibration: invariant relation fails with residue -1/6"),
            ("S2(2,3,7); 1/2,1/3,1/7; ; 1/42", "not spherical: chi(base) <= 0 or e = 0"),
            ("S2; ; 0", "not spherical: chi(base) <= 0 or e = 0"),
        ):
            argvs = [(bad, good), (good, bad)] if "diffeo" in command else [(bad,)]
            for argv in argvs:
                assert run(*command, *argv) == (1, "", "error: %s\n" % message)

    def test_fibrations_infinite_key(self):
        code, out, _ = run("fibrations", "S2(2,2,3); 0/2,0/2,1/3; ; -1/3")
        assert code == 0 and out.startswith("infinitely many fibrations")

    def test_json_report_fields(self):
        code, out, _ = run("--json", "classify", "S2(2,3,5); 1/2,1/3,1/5; ; -1/30")
        assert code == 0
        obj = json.loads(out)
        assert obj["spherical"] and obj["count"] == 1 and obj["chi"] == "1/30"


class TestAtlas:
    def test_deterministic_and_grouped(self, tmp_path):
        out1 = run("--json", "atlas", "--max-order", "60")
        out2 = run("--json", "atlas", "--max-order", "60")
        assert out1 == out2 and out1[0] == 0
        lines = out1[1].splitlines()
        assert lines
        for line in lines:
            obj = json.loads(line)
            assert {"class", "count", "members"} <= set(obj)
        # hopf and anti-hopf quotients of one group land in one class
        member_classes = {}
        for line in lines:
            obj = json.loads(line)
            for m in obj["members"]:
                member_classes.setdefault(m["group"], set()).add(obj["class"])
        both_sided = [g for g, cs in member_classes.items() if len(cs) > 1]
        assert not both_sided

    @pytest.mark.parametrize("max_order", [60, 400])
    def test_text_rows_are_the_json_members(self, max_order):
        """The text atlas lists the --json atlas's members, class by class in
        the same order, with the same class ids, quotients and fibration
        lists; ids count classes in order of first appearance.  A text row of
        an infinite class carries its own key."""
        code, text, _ = run("atlas", "--max-order", str(max_order))
        assert code == 0
        rows = []
        for line in text.splitlines():
            m = _ATLAS_ROW.fullmatch(line)
            assert m, line
            cid, group, order, side, quotient, fibs, key = m.groups()
            rows.append((int(cid), group, int(order), side, quotient,
                         None if fibs is None else fibs.split(" | "),
                         None if key is None else json.loads(key)))
        first_seen = list(dict.fromkeys(row[0] for row in rows))
        assert first_seen == list(range(len(first_seen)))
        classes = [json.loads(line)
                   for line in run("--json", "atlas", "--max-order", str(max_order))[1].splitlines()]
        assert [obj["class"] for obj in classes] == first_seen
        members = [(obj["class"], m["group"], m["order"], m["side"], m["quotient"],
                    obj["fibrations"])
                   for obj in classes for m in obj["members"]]
        # a stable sort keeps the sweep order within each class
        assert [row[:6] for row in sorted(rows, key=lambda row: row[0])] == members
        infinite = [row for row in rows if row[6] is not None]
        assert infinite and all(row[5] is None for row in infinite)
        for row in infinite:
            assert row[6] == cli._key_json(diffeo_key(parse_fibration(row[4])))

    def test_text_atlas_reads_no_key_through_the_memo(self, monkeypatch):
        """The text atlas calls `_invariant` only where the --json sweep
        does: an infinite-class row reads its key from its small-base
        representative, not through the bounded memo, which the sweep at
        order 400 has overfilled."""
        original, calls = classify._invariant, []

        def counted(f):
            calls.append(f)
            return original(f)

        monkeypatch.setattr(classify, "_invariant", counted)
        counts = []
        for as_json in (True, False):
            calls.clear()
            cli._atlas_text(400, as_json)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_out_file(self, tmp_path):
        target = tmp_path / "atlas.txt"
        code, out, _ = run("atlas", "--max-order", "30", "--out", str(target))
        assert code == 0 and not out
        assert target.read_text() == run("atlas", "--max-order", "30")[1] + "\n"

    @pytest.mark.parametrize("mode", [(), ("--json",)])
    def test_empty_atlas_prints_nothing(self, tmp_path, mode):
        """No group has order 1, so that atlas has no rows: stdout and the
        --out file stay empty, with no blank line."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert run_command([*mode, "atlas", "--max-order", "1"]) == 0
        assert out.getvalue() == err.getvalue() == ""
        target = tmp_path / "atlas.txt"
        assert run(*mode, "atlas", "--max-order", "1", "--out", str(target)) == (0, "", "")
        assert target.read_bytes() == b""

    @pytest.mark.parametrize(
        "where, reason",
        [("missing/atlas.txt", "No such file or directory"), (".", "Is a directory")],
    )
    def test_unwritable_out_exits_1(self, tmp_path, where, reason):
        target = str(tmp_path / where)
        assert run("atlas", "--max-order", "3", "--out", target) == (
            1, "", "error: cannot write %s: %s\n" % (target, reason)
        )

    @pytest.mark.parametrize("mode", [(), ("--json",)])
    def test_empty_out_exits_1(self, mode):
        """An empty --out is a path that cannot be opened, not a missing
        --out: nothing goes to stdout."""
        assert run(*mode, "atlas", "--max-order", "3", "--out", "") == (
            1, "", "error: cannot write : No such file or directory\n"
        )

    def test_unwritable_out_fails_before_the_sweep(self, tmp_path, monkeypatch):
        def sweep(max_order):
            raise AssertionError("the sweep ran before --out was opened")

        monkeypatch.setattr(cli, "_atlas_classes", sweep)
        target = str(tmp_path / "missing" / "atlas.txt")
        assert run("atlas", "--max-order", "400", "--out", target) == (
            1, "", "error: cannot write %s: No such file or directory\n" % target
        )


def test_one_parser_serves_successive_commands():
    """The parser is built once per process; a command sees nothing of the
    one before it."""
    expr = "S2(2,2,4); 0/2,0/2,2/4; ; -1/2"
    argvs = (("--json", "classify", expr), ("classify", expr), ("atlas", "--max-order", "5"))
    build_parser.cache_clear()
    parser = build_parser()
    shared = [run(*argv) for argv in argvs]
    assert build_parser() is parser
    fresh = []
    for argv in argvs:
        build_parser.cache_clear()
        fresh.append(run(*argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0]
    assert json.loads(shared[0][1])["count"] == 3
    assert shared[1][1] == "spherical; fibrations: 3"


# -- the command table against argparse -------------------------------------

# Tokens argparse reads in its own ways: the end of options, negative
# numbers, help, abbreviations, the empty string and a lone dash.
_ARGV_TOKENS = ("--", "-1", "-h", "--help", "--js", "--anti", "", "-", "--json",
                "--anti-hopf", "--max-order", "5")


@st.composite
def table_argvs(draw):
    """A table command with its count of positionals and its flags, in any
    order, at times with a flag repeated or a `--` or `-1` among them."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    _, names, flags, _ = cli._COMMANDS[name]
    tokens = [draw(fibration_texts) for _ in names]
    tokens += draw(st.lists(st.sampled_from(flags + _ARGV_TOKENS[:2]), max_size=2))
    head = draw(st.lists(st.just("--json"), max_size=1))
    return head + [name] + draw(st.permutations(tokens))


@settings(max_examples=1000, deadline=None)
@given(st.one_of(
    table_argvs(),
    argvs(),
    st.builds(operator.add, argvs(), st.lists(st.sampled_from(_ARGV_TOKENS), max_size=2)),
    st.lists(st.one_of(fibration_texts, st.sampled_from(COMMANDS + list(_ARGV_TOKENS))),
             max_size=5),
))
def test_table_reader_agrees_with_argparse(argv):
    """The table reader declines an argv or reads it as argparse does."""
    args = cli._read_argv(argv)
    if args is not None:
        assert vars(args) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("argv, read_by_table", [
    (["--help"], False),
    (["quotient", "--help"], False),
    (["lens", "--json", "S2(4,4); 2/4,2/4; ; -1"], False),
    (["atlas", "--max-order", "5"], False),
    (["--json", "--json", "chi", "S2"], False),
    (["quotient", "F20", "--anti-hopf", "--anti-hopf"], False),
    (["lens", "S2; ; -1", "S2; ; -1"], False),
    (["chi", "--", "S2"], False),
    (["quotient", "--anti-hopf", "F2(m=3,n=2)"], True),
    (["--json", "quotient", "F2(m=3,n=2)"], True),
    (["--json", "lens", "S2(4,4); 2/4,2/4; ; -1"], True),
    (["diffeo", "S2(2,2); 0/2,0/2; ; -1", "D2; ; ; -1; 0"], True),
])
def test_command_table_answers_as_argparse(monkeypatch, argv, read_by_table):
    """Exit code, stdout and stderr are those of the argparse path, whether
    or not the table reads the argv."""
    assert (cli._read_argv(argv) is not None) is read_by_table
    got = run(*argv)
    monkeypatch.setattr(cli, "_read_argv", lambda argv: None)
    assert run(*argv) == got
    if argv[-1] == "--help":
        assert got[0] == 0 and got[1].startswith("usage: seifert")


def test_each_table_command_is_a_subparser():
    """build_parser declares every table command from the table, with its
    positionals and flags, and the table reads a well-formed argv of each."""
    for name, (fn, names, flags, _) in cli._COMMANDS.items():
        argv = [name] + ["S2"] * len(names) + list(flags)
        args = build_parser().parse_args(argv)
        assert args.fn is fn
        assert vars(cli._read_argv(argv)) == vars(args)


def _schema_check(obj, validator):
    """The shipped schema, plus the two checks it cannot express: no key
    outside its properties, and q < p in every lens."""
    validator.validate(obj)
    assert set(obj) <= set(validator.schema["properties"]), sorted(obj)
    for lens in (obj.get("lens"), obj.get("diffeo_key", {}).get("lens")):
        if lens is not None:
            assert lens["q"] < lens["p"], lens


def test_reports_validate_against_schema():
    import importlib.resources as res

    from jsonschema import Draft202012Validator

    schema = json.loads(
        res.files("seifert_orbifolds").joinpath("schema.json").read_text()
    )
    Draft202012Validator.check_schema(schema)
    validator = Draft202012Validator(schema)
    exprs = [
        "S2(2,3,5); 1/2,1/3,1/5; ; -1/30",
        "S2(2,2,4); 0/2,0/2,2/4; ; -1/2",
        "S2(2,2); 0/2,0/2; ; -1",
        "D2(;3,3); ; 1/3,1/3; -1/3; 0",
        "D2; ; ; -1; 0",
        "RP2(3); 1/3; 2/3",
        "S2(2,2,3); 0/2,0/2,1/3; ; -1/2",
        "S2; ; 0",
    ]
    for g in list(enumerate_quotient_groups(90))[:40]:
        exprs.append(str(quotient_hopf(g)))
    for text in exprs:
        obj = expression_report(parse_fibration(text))
        _schema_check(obj, validator)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.sampled_from([1, -1]))
def test_print_parse_roundtrip_on_engine_values(u, v, sign):
    from math import gcd

    from seifert_orbifolds.core import s3_fibration

    if gcd(u, v) != 1:
        return
    f = s3_fibration(u, v, sign)
    assert normalize(parse_fibration(str(f))) == f


def test_print_parse_roundtrip_on_quotients():
    from seifert_orbifolds.classify import (
        FibrationClass,
        enumerate_bridges,
        enumerate_fibrations,
        fibration_class,
    )

    for g in enumerate_quotient_groups(150):
        f = quotient_hopf(g)
        values = {f}
        if fibration_class(f) is FibrationClass.FINITE:
            values |= enumerate_fibrations(f)
        else:
            values.add(enumerate_bridges(f) or f)
        for v in values:
            assert normalize(parse_fibration(str(v))) == v


def test_parameter_cap_env(monkeypatch):
    # SEIFERT_ATLAS_MAX_B no longer caps base labels: the answer is the same
    # with it set below the label and unset
    argv = ("classify", "S2(2,2,97); 0/2,0/2,1/97; ; -1/97")
    monkeypatch.setenv("SEIFERT_ATLAS_MAX_B", "50")
    capped = run(*argv)
    monkeypatch.delenv("SEIFERT_ATLAS_MAX_B")
    assert capped == run(*argv) == (0, "spherical; fibrations: infinite", "")


@pytest.mark.parametrize("value", ["-5", "0", "abc", "\u0663"])
def test_bad_max_order_exits_1(value):
    code, out, err = run("atlas", "--max-order", value)
    assert code == 1 and not out and "--max-order must be a positive integer" in err


@pytest.mark.parametrize("value", ["abc", "0", "-3", "1e4", "5"])
def test_parameter_cap_env_is_ignored(monkeypatch, value):
    argvs = (
        ("classify", "S2(2,2,3); 0/2,0/2,1/3; ; -1/3"),
        ("lens", "S2(4,4); 2/4,2/4; ; -1"),
        ("atlas", "--max-order", "10"),
    )
    monkeypatch.delenv("SEIFERT_ATLAS_MAX_B", raising=False)
    unset = [run(*argv) for argv in argvs]
    monkeypatch.setenv("SEIFERT_ATLAS_MAX_B", value)
    assert [run(*argv) for argv in argvs] == unset
    assert all(code == 0 and out for code, out, _ in unset)


def test_validate_flags_order_mismatch():
    code, out, _ = run("validate", "S2(2,3); 1/2,1/4; ; -3/4")
    assert code == 1 and "do not match" in out


def _over_the_digit_limit():
    """A number one digit longer than int() converts, and the limit."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not limit:
        pytest.skip("int() converts numbers of any length here")
    return "7" * (limit + 1), limit


@pytest.mark.parametrize("template, position", [
    ("S2(2); 1/2; ; -{}", 15),  # the Euler class, read by the pattern
    ("S2(2); 1/2; ; -1/{}", 17),  # its denominator
    ("S2(2,{}); 1/2,1/7; ; -1", 5),  # a label
    ("S2(2); {}/2; ; -1", 7),  # a numerator
    ("S2(2); 1/{}; ; -1", 9),  # an order
    ("  ( S2(2); - {}/2; -1 )", 13),  # the walker's path: spaces after the sign
])
@pytest.mark.parametrize("command", ["classify", "validate", "lens"])
def test_a_number_longer_than_int_converts_is_positioned(command, template, position):
    digits, limit = _over_the_digit_limit()
    code, out, err = run(command, template.format(digits))
    assert (code, out) == (1, "")
    assert err == "error: position %d: number too long: %d digits, at most %d\n" % (
        position, limit + 1, limit)


def test_a_base_label_longer_than_int_converts_is_positioned():
    digits, limit = _over_the_digit_limit()
    assert run("chi", "D2(2;3,%s)" % digits) == (
        1, "", "error: position 7: number too long: %d digits, at most %d\n"
        % (limit + 1, limit))


def test_a_padded_number_does_not_take_the_blame_of_a_long_one():
    """The walker counts a number's digits without its leading 0s, as the
    reader does, so the error names the number that is really too long,
    not an order padded with 0s that reads as 2."""
    _, limit = _over_the_digit_limit()
    if limit >= 5000:
        pytest.skip("int() converts a 5,000-digit number here")
    text = "S2(2); 1/%s2; ; -%s" % ("0" * 5000, "7" * 5000)
    assert run("classify", text) == (
        1, "", "error: position 5015: number too long: 5000 digits, at most %d\n" % limit)


@pytest.mark.parametrize("template", [
    "S2(2); {}1/2; ; -1/2",  # a numerator
    "S2(2); 1/{}2; ; -1/2",  # an order
    "S2({}2); 1/2; ; -1/2",  # a label
    "S2(2); 1/2; ; -{}1/2",  # the Euler class
    "S2(2); 1/2; ; -1/{}2",  # its denominator
    "S2(2); {}0/2; ; -0{}",  # numbers that are 0
])
def test_a_number_padded_past_the_digit_limit_reads_as_its_value(template):
    digits, _ = _over_the_digit_limit()
    zeros = "0" * len(digits)
    value = "(S2(2); 0/2; 0)" if "-0" in template else "(S2(2); 1/2; -1/2)"
    assert run("normalize", template.format(zeros, zeros)) == (0, value, "")
    # a text the pattern declines for another piece: the walker passes the
    # padded number and names that piece
    code, out, err = run("normalize", template.format(zeros, zeros) + " x")
    assert (code, out) == (1, "") and "bad rational" in err and "too long" not in err


@pytest.mark.parametrize("template", [
    "S2(2); {}1/1, 1/2; ; -1/2",  # an order-1 invariant, which the value drops
    "S2({}1, 2); 1/2; ; -1/2",  # an order-1 point
])
def test_an_order_1_item_with_a_long_number_is_skipped_quickly(template):
    """The reader skips an order-1 item without a scan of the rest of its
    number from each of its digits (12 s for 40,000 digits when it did)."""
    start = time.perf_counter()
    f = parse_fibration(template.format("0" * 40000))
    assert time.perf_counter() - start < 1.0
    assert str(normalize(f)) == "(S2(2); 1/2; -1/2)"


def test_a_base_label_padded_past_the_digit_limit_reads_as_its_value():
    digits, _ = _over_the_digit_limit()
    assert run("chi", "S2(%s2)" % ("0" * len(digits))) == (0, "chi(S2(2)) = 3/2", "")
    assert run("--json", "chi", "D2(%s3;)" % ("0" * len(digits))) == (
        0, '{"base": "D2(3;)", "chi": "1/3"}', "")


def test_a_max_order_longer_than_int_converts_exits_1():
    digits, limit = _over_the_digit_limit()
    assert run("atlas", "--max-order", digits) == (
        1, "", "error: --max-order too long: %d digits, at most %d\n" % (limit + 1, limit))


def test_a_max_order_padded_past_the_digit_limit_reads_as_its_value():
    """`--max-order` is read as an expression's numbers are: leading 0s do
    not count toward the digit limit, and a long number names the option
    with its digits after the 0s."""
    digits, limit = _over_the_digit_limit()
    zeros = "0" * len(digits)
    code, out, err = run("atlas", "--max-order", zeros + "4")
    assert (code, out, err) == run("atlas", "--max-order", "4") and out.count("\nclass") == 2
    assert run("atlas", "--max-order", zeros) == (
        1, "", "error: --max-order must be a positive integer, got %r\n" % zeros)
    assert run("atlas", "--max-order", zeros + digits) == (
        1, "", "error: --max-order too long: %d digits, at most %d\n" % (limit + 1, limit))


def _answer_too_long():
    """A valid input whose every number int() converts, but whose lens p,
    9 * (10**limit - 1), has one digit more than str() prints; and the
    limit."""
    _, limit = _over_the_digit_limit()
    return "S2(3,3); 1/3,2/3; ; -%s" % ("9" * limit), limit


@pytest.mark.parametrize("argv", [
    ["lens"], ["fibrations"], ["--json", "validate"], ["--json", "normalize"],
    ["--json", "classify"], ["--json", "fibrations"], ["--json", "lens"],
])
def test_an_answer_too_long_to_print_exits_1_with_a_message(argv):
    text, limit = _answer_too_long()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv + [text])
    assert (code, out.getvalue(), err.getvalue()) == (
        1, "", "error: answer too long to print: a number in it has more than %d digits\n"
        % limit)


def test_text_reports_of_a_long_answer_print_no_long_number():
    """Text classify prints no number; text validate and normalize print
    the input's, which str() converts."""
    text, limit = _answer_too_long()
    assert run("classify", text) == (0, "spherical; fibrations: infinite", "")
    for command in ("validate", "normalize"):
        code, out, err = run(command, text)
        assert (code, err) == (0, "") and "9" * limit in out


def test_huge_euler_class_is_answered_quickly():
    start = time.perf_counter()
    code, out, err = run("lens", "S2; ; -1000000007")
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (0, "L(1000000007,1)", "")


# -- the parser against the one it replaced -----------------------------------
#
# The parser before it built its value in one pass, kept as the reference:
# every number went through the TwoOrbifold and FiberedOrbifold
# constructors, and a parenthesized input was split twice.  The new parser
# must give the same value (fields in the same, un-normalized order) or
# raise the same exception with the same message.  The reference's messages
# were since changed in two ways: an unbalanced '(' is reported at the '('
# that is never closed, and every position is that of the first non-blank
# character of the bad piece in the text as given (a bad label or
# invariant, the label 0, the corner labels of a base without corners, the
# base, the Euler class or the boundary bit), counted character by
# character here.  Its Euler class was tightened once: a blank between two
# digits is a bad rational, as it always was inside a label or an
# invariant, where it used to be deleted.  Its invariants then took the
# Euler class's rule: only spaces may stand after the sign and around the
# '/', where any blank used to stand around the '/' and none after the sign.

_REF_NATURAL = re.compile(r"[0-9]+")
_REF_SPACED_INTEGER = re.compile(r"[+-]? *[0-9]+")
_REF_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _ref_split_top(text, offset):
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            if depth == 0:
                opened = i
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("position %d: unbalanced ')'" % (offset + i))
        elif ch == ";" and depth == 0:
            parts.append((text[start:i], offset + start))
            start = i + 1
    if depth != 0:
        raise ParseError("position %d: unbalanced '('" % (offset + opened))
    parts.append((text[start:], offset + start))
    return parts


def _ref_first_char(text, offset):
    i = 0
    while i < len(text) and text[i].isspace():
        i += 1
    return offset + i


def _ref_pieces(text, offset):
    """Each comma-separated piece of text, stripped, with its position."""
    out = []
    start = 0
    for i, ch in enumerate(text + ","):
        if ch == ",":
            piece = text[start:i]
            out.append((piece.strip(), _ref_first_char(piece, offset + start)))
            start = i + 1
    return out


def _ref_parse_labels(text, offset):
    """(label, position) pairs."""
    if not text.strip():
        return []
    out = []
    for piece, at in _ref_pieces(text, offset):
        if not _REF_NATURAL.fullmatch(piece):
            raise ParseError("position %d: expected a label, got %r" % (at, piece))
        out.append((int(piece), at))
    return out


def _ref_parse_base(text, offset=0):
    at = _ref_first_char(text, offset)
    text = text.strip()
    for name, surface in (
        ("S2", Surface.SPHERE),
        ("RP2", Surface.PROJECTIVE_PLANE),
        ("D2", Surface.DISK),
    ):
        if text == name:
            return TwoOrbifold(surface)
        if text.startswith(name + "("):
            if not text.endswith(")"):
                raise ParseError("position %d: unbalanced base parentheses" % at)
            inner = text[len(name) + 1 : -1]
            if ";" in inner:
                cones_txt, _, corners_txt = inner.partition(";")
            else:
                cones_txt, corners_txt = inner, ""
            cones_at = at + len(name) + 1
            corners_at = cones_at + len(cones_txt) + 1
            cones = _ref_parse_labels(cones_txt, cones_at)
            corners = _ref_parse_labels(corners_txt, corners_at)
            try:
                return TwoOrbifold(surface, [b for b, _ in cones], [b for b, _ in corners])
            except ValueError as exc:
                zeros = [where for b, where in cones + corners if b == 0]
                where = zeros[0] if zeros else _ref_first_char(corners_txt, corners_at)
                raise ParseError("position %d: %s" % (where, exc)) from exc
    raise ParseError("position %d: unknown base %r" % (at, text))


def _ref_parse_invariants(text, offset):
    if not text.strip():
        return []
    out = []
    for piece, at in _ref_pieces(text, offset):
        num, slash, den = piece.partition("/")
        if not slash:
            raise ParseError(
                "position %d: local invariant must be written a/b, got %r" % (at, piece)
            )
        num, den = num.rstrip(" "), den.lstrip(" ")
        if not (_REF_SPACED_INTEGER.fullmatch(num) and _REF_NATURAL.fullmatch(den)):
            raise ParseError("position %d: bad invariant %r" % (at, piece))
        if int(den) == 0:
            raise ParseError(
                "position %d: invariant order must be >= 1, got %r" % (at, piece)
            )
        out.append((int(num.replace(" ", "")), int(den)))
    return out


def _ref_parse_rational(text, offset):
    at = _ref_first_char(text, offset)
    # spaces may stand around the sign and the '/', never between two digits
    chunks = [c for c in text.strip().split(" ") if c]
    compact = "".join(chunks)
    if (any(a[-1].isdigit() and b[0].isdigit() for a, b in zip(chunks, chunks[1:]))
            or not _REF_RATIONAL.fullmatch(compact)):
        raise ParseError("position %d: bad rational %r" % (at, text))
    try:
        return Fraction(compact)
    except ZeroDivisionError as exc:
        raise ParseError("position %d: bad rational %r" % (at, text)) from exc


def _ref_parse_fibration(text):
    offset = _ref_first_char(text, 0)
    stripped = text.strip()
    if stripped.startswith("(") and stripped.endswith(")"):
        inner = stripped[1:-1]
        try:
            _ref_split_top(inner, offset + 1)
        except ParseError:
            pass
        else:
            stripped = inner
            offset += 1
    parts = _ref_split_top(stripped, offset)
    if len(parts) < 2:
        raise ParseError("expected base and invariants separated by ';'")
    base = _ref_parse_base(parts[0][0], parts[0][1])

    if base.surface is Surface.DISK:
        if len(parts) not in (4, 5):
            raise ParseError(
                "a disk-base fibration takes base; cones; corners; e(; xi), got %d fields"
                % len(parts)
            )
        cones = _ref_parse_invariants(*parts[1])
        corners = _ref_parse_invariants(*parts[2])
        e = _ref_parse_rational(*parts[3])
        if len(parts) == 5:
            xi_txt = parts[4][0].strip()
            if xi_txt not in ("0", "1"):
                raise ParseError("position %d: xi must be 0 or 1, got %r"
                                 % (_ref_first_char(*parts[4]), xi_txt))
            xi = (int(xi_txt),)
        else:
            try:
                xi = (solve_xi(cones, corners, e),)
            except ValueError as exc:
                raise ParseError(
                    "xi omitted but no boundary bit satisfies the sum relation; "
                    "give xi explicitly"
                ) from exc
    else:
        if len(parts) == 3:
            cones = _ref_parse_invariants(*parts[1])
            corners = []
            e = _ref_parse_rational(*parts[2])
        elif len(parts) == 4:
            cones = _ref_parse_invariants(*parts[1])
            corners = _ref_parse_invariants(*parts[2])
            if corners:
                raise ParseError(
                    "position %d: %s bases carry no corner reflectors"
                    % (_ref_first_char(*parts[2]), base.surface.value)
                )
            e = _ref_parse_rational(*parts[3])
        else:
            raise ParseError(
                "a %s-base fibration takes base; cones(; corners); e, got %d fields"
                % (base.surface.value, len(parts))
            )
        xi = ()

    n_labels = len(base.cone_labels) + len(base.corner_labels)
    n_invs = sum(1 for a, b in cones if b != 1) + sum(1 for a, b in corners if b != 1)
    if n_labels != n_invs:
        raise ParseError(
            "label/invariant count mismatch: base has %d singular labels, "
            "%d invariants given" % (n_labels, n_invs)
        )
    return FiberedOrbifold(
        base,
        tuple((a, b) for a, b in cones),
        tuple((a, b) for a, b in corners),
        e,
        xi,
    )


def _fields(f):
    return (f.base.surface, f.base.cone_labels, f.base.corner_labels,
            f.cone_invariants, f.corner_invariants, f.euler, f.xi)


def assert_parses_like_reference(text):
    try:
        want = _ref_parse_fibration(text)
    except Exception as exc:
        with pytest.raises(type(exc)) as info:
            parse_fibration(text)
        assert type(info.value) is type(exc), text
        assert str(info.value) == str(exc), text
        return "raised"
    got = parse_fibration(text)
    assert got == want, text
    assert hash(got) == hash(want), text
    assert str(got) == str(want), text
    assert repr(got) == repr(want), text
    assert _fields(got) == _fields(want), text
    assert type(got.euler) is Fraction and all(type(x) is int for x in got.xi), text
    return "parsed"


_GRID_CONES = (  # (cone labels, cone invariants)
    ((), ""),
    ((2,), "1/2"),
    ((3, 2), "1/3, -1/2"),  # labels out of order
    ((1, 2), "0/1,1/2"),  # order-1 points on both sides
    ((2, 3), "1/2"),  # one invariant short
    ((2,), "1/2,0/1"),  # an order-1 invariant beside the label
    ((0, 2), "1/2,1/2"),  # label 0
    ((4,), "1/0"),  # invariant order 0
    ((2,), "+3/2"),
)
_GRID_CORNERS = (  # (corner labels, corner invariants); None omits the slot
    None,
    ((), ""),
    ((2, 4), "3/4,1/2"),
    ((1,), "0/1"),
    ((2,), ""),  # the corner invariant is missing
)
_GRID_EULER = ("-1", "-4/3", "3/6", " + 2 / 4 ", "1/0", "0", "-1/8")
_GRID_XI = (None, "0", "1", "2")


def _grid_text(surface, cones, corners, euler, xi, outer):
    cone_labels, cone_invs = cones
    corner_labels, corner_invs = corners or ((), "")
    labels = ",".join(map(str, cone_labels))
    if corner_labels:
        labels += ";" + ",".join(map(str, corner_labels))
    fields = [surface + ("(%s)" % labels if labels else ""), cone_invs]
    if corners is not None:
        fields.append(corner_invs)
    fields.append(euler)
    if xi is not None:
        fields.append(xi)
    text = "; ".join(fields)
    return "(%s)" % text if outer else text


def test_parser_matches_reference_on_grid():
    outcomes = Counter()
    for args in itertools.product(("S2", "RP2", "D2"), _GRID_CONES, _GRID_CORNERS,
                                  _GRID_EULER, _GRID_XI, (False, True)):
        outcomes[assert_parses_like_reference(_grid_text(*args))] += 1
    assert outcomes["parsed"] > 500 and outcomes["raised"] > 500


_MALFORMED = {
    "empty": "",
    "base-only": "S2",
    "one-field": "S2;",
    "unknown-base": "T2; ; -1",
    "space-before-labels": "S2 (2); 1/2; -1",
    "junk-after-labels": "S2(2)x; 1/2; -1",
    "empty-labels": "S2(); ; -1",
    "open-base": "S2(2,3; 1/2,1/3; ; -1/6",
    "open-at-end": "S2(2,3); 1/2,1/3; ; -1/6; (",
    "two-open": "S2((2,3; 1/2",
    "close-first": "S2(2,3)); 1/2,1/3; ; -1/6",
    "stray-close": ")(",
    "outer-open-only": "(S2(2,3); 1/2,1/3; -1/6",
    "outer-unbalanced-inside": "(S2(2; 1/2; -1)",
    "outer-split-halves": "(S2; ; -1);(S2; ; -1)",
    "double-outer": "((S2; ; -1))",
    "outer": "(S2(2,3); 1/2,1/3; -1/6)",
    "labels-semicolons": "D2(2;3;4); 1/2; 1/3,1/4; -1",
    "sphere-corner-labels": "S2(2;3); 1/2; 1/3; -1",
    "spaced-corner-labels": "S2(2; 3); 1/2; 1/3; -1",
    "spaced-zero-label": "D2( 2 ,1; 0); ; 1/2; -1; 0",
    "rp2-order-one-corner": "RP2(;1); ; ; -1",
    "bad-label": "S2(x); ; -1",
    "label-zero": "S2(0); ; -1",
    "label-zero-after-bad": "D2(0;x); ; ; -1; 0",
    "corner-label-zero": "D2(;0,2); ; 1/2; -1; 0",
    "sphere-corners": "S2(2); 1/2; 1/2; -1",
    "sphere-order-one-corner": "S2(2); 1/2; 0/1; -1",
    "sphere-five-fields": "S2(2); 1/2; ; -1; 0",
    "bare-disk": "D2; ; ; -1",
    "disk-three-fields": "D2; ; -1",
    "disk-six-fields": "D2; ; ; -1; 0; 0",
    "xi-unsolvable": "D2(;3); ; 1/3; -1/2",
    "xi-two": "D2(;2); ; 1/2; -1/4; 2",
    "xi-spaced": "D2(;2); ; 1/2; -1/4;  1 ",
    "xi-signed": "D2(;2); ; 1/2; -1/4; +1",
    "plain-invariant": "S2(2); 1; -1",
    "open-invariant": "S2(2); 1/; -1",
    "letter-invariant": "S2(2); a/2; -1",
    "double-slash": "S2(2); 1/2/3; -1",
    "empty-invariant": "S2(2,2); 1/2,,1/2; -1",
    "signed-order": "S2(2); 1/-2; -1",
    "order-zero": "S2(2); 1/0; -1",
    "euler-zero-denominator": "S2; ; 1/0",
    "euler-zero-over-zero": "S2; ; 0/0",
    "euler-exponent": "S2; ; 1e3",
    "euler-decimal": "S2; ; -1.0",
    "euler-tab": "S2; ; -1\t/2",
    "invariant-tab": "S2(2); 1\t/2; -1/2",
    "euler-split-digits": "S2; ; -1 0",
    "euler-split-after-sign": "S2(2); 1/2; - 1 2",
    "euler-empty": "S2; ; ",
    "arabic-label": "S2(٣); 1/3; -1",
    "fullwidth-euler": "S2; ; -１",
    "count-short": "S2(2,2,3); 1/2,1/2; ; -1",
    "count-long": "S2(2); 1/2,1/3; -1",
    "count-order-one": "S2(2); 1/2,0/1; -1",
    "tabs": "S2;\t;\t-1",
    "padded": "  S2 ; ; -1  ",
    "huge": "S2; ; -%d/%d" % (10 ** 40 + 7, 3 ** 50),
}


@pytest.mark.parametrize("text", list(_MALFORMED.values()), ids=list(_MALFORMED))
def test_parser_matches_reference_on_named_texts(text):
    assert_parses_like_reference(text)


_TOKENS = ("S2", "RP2", "D2", "(", ")", ";", "; ", ",", "/", " ", "-", "+", "0", "1",
           "2", "3", "12", "1/2", "1/3", "-1", "0/1", "3/4", "1/0", "x")


_GENERATED_TEXTS = st.one_of(
    st.lists(st.sampled_from(_TOKENS), max_size=16).map("".join),
    st.builds(_grid_text, st.sampled_from(("S2", "RP2", "D2")), st.sampled_from(_GRID_CONES),
              st.sampled_from(_GRID_CORNERS), st.sampled_from(_GRID_EULER),
              st.sampled_from(_GRID_XI), st.booleans()),
)


@settings(max_examples=400, deadline=None)
@given(_GENERATED_TEXTS)
def test_parser_matches_reference_on_generated_texts(text):
    assert_parses_like_reference(text)
    read_like_reference(text)


# `parse_fibration` reads a text with the pattern reader `_read_fibration`
# alone; when that declines, `_explain_rejection` raises the error.


def read_like_reference(text):
    """Whether the pattern reader took `text`; when it did, its value is
    the reference parser's, field for field and type for type, or it
    raised the reference parser's error."""
    try:
        got = cli._read_fibration(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as want:
            _ref_parse_fibration(text)
        assert str(exc) == str(want.value), text
        return True
    if got is None:
        return False
    want = _ref_parse_fibration(text)
    assert _fields(got) == _fields(want), text
    assert type(got.euler) is Fraction and type(got.xi) is tuple, text
    assert all(type(x) is int for x in got.xi + got.base.cone_labels + got.base.corner_labels)
    return True


def test_pattern_reader_agrees_with_reference_on_grid_and_named_texts():
    grid = [_grid_text(*args) for args in itertools.product(
        ("S2", "RP2", "D2"), _GRID_CONES, _GRID_CORNERS, _GRID_EULER, _GRID_XI, (False, True))]
    taken = Counter(read_like_reference(text) for text in grid + list(_MALFORMED.values()))
    assert taken[True] > 500 and taken[False] > 5000


@pytest.mark.parametrize("tail", ["; ; -1/0", "; ; -1/2 x", "; 1/2; -1/2", ", 1/0; ; -1/2"])
def test_pattern_declines_a_long_list_in_linear_time(tail):
    """Each run of blanks in the notation pattern is taken by one term, so
    a long invariant list with a bad tail is declined at once: were the
    blanks before an unsigned invariant split between two terms, each
    invariant would double the ways the pattern tries."""
    text = "S2; " + ", ".join(["1/2"] * 24) + tail
    start = time.perf_counter()
    with pytest.raises(ParseError, match=r"^position \d+: "):
        parse_fibration(text)
    assert time.perf_counter() - start < 0.5
    assert cli._read_fibration(text) is None


def _printed_forms(f):
    """str(f) and, on S2 and RP2, the same with a blank corner slot, each
    with and without the outer parentheses."""
    texts = [str(f)]
    if f.base.surface is not Surface.DISK:
        base, cones, euler = texts[0].rsplit("; ", 2)
        texts.append("%s; %s; ; %s" % (base, cones, euler))
    return texts + [text[1:-1] for text in texts]


def test_pattern_reader_takes_every_printed_value():
    """Every value the engine prints, and its mirror: the rule table's grid
    and every quotient and finite-class member of the atlas to order 200."""
    from test_rule_table import grid

    from seifert_orbifolds.core import reverse_orientation

    classes, rows = cli._atlas_classes(200)
    printed = [row[4] for row in rows]
    printed += [member for cls in classes.values() for member in cls[1] or ()]
    values = set(grid()) | {_ref_parse_fibration(text) for text in printed}
    values |= {reverse_orientation(f) for f in values}
    missed = [text for f in values for text in _printed_forms(f) if not read_like_reference(text)]
    assert missed == []


def test_pattern_reader_takes_every_readme_expression():
    exprs = []
    for line in _block("Command line", "sh").splitlines():
        argv = [arg for arg in shlex.split(line, comments=True)[1:] if arg != "--json"]
        if argv and argv[0] in ("validate", "normalize", "classify", "fibrations",
                                "diffeo", "lens"):
            exprs += argv[1:]
    assert len(exprs) >= 8
    assert [text for text in exprs if not read_like_reference(text)] == []


@pytest.mark.parametrize("text, printed", [
    ("S2(03,02); 01/03,1/02; -05/6", "(S2(2,3); 1/3,1/2; -5/6)"),
    ("(RP2(03); 1/003; -2/03)", "(RP2(3); 1/3; -2/3)"),
    ("D2(;03,03); ; 01/03,1/003; -1/03; 0", "(D2(;3,3); ; 1/3,1/3; -1/3; 0)"),
    # the two golden inputs with a leading 0
    ("(RP2(5); 2/5; -7/05)", "(RP2(5); 2/5; -7/5)"),
    ("(D2(;2,2,6); ; 1/02,1/2,5/6; 1/12; 0)", "(D2(;2,2,6); ; 1/2,1/2,5/6; 1/12; 0)"),
])
def test_pattern_reader_takes_leading_zeros(text, printed):
    f = cli._read_fibration(text)
    assert str(f) == printed
    assert _fields(f) == _fields(cli._read_fibration(printed))
    assert read_like_reference(text)


def explained_if_declined(text):
    """Whether the pattern reader declines `text`; when it does,
    `_explain_rejection` raises a ParseError, never its AssertionError,
    and `parse_fibration` raises that error."""
    try:
        declined = cli._read_fibration(text) is None
    except ParseError:
        return False
    except ValueError:  # a number int() does not convert
        declined = True
    if declined:
        with pytest.raises(ParseError) as explained:
            cli._explain_rejection(text)
        with pytest.raises(ParseError) as parsed:
            parse_fibration(text)
        assert str(parsed.value) == str(explained.value), text
    return declined


def test_every_declined_golden_and_named_text_is_explained():
    inputs = json.loads((Path(__file__).with_name("golden") / "inputs.json").read_text())
    texts = [text for name in ("fibrations", "malformed", "nonspherical", "mutations", "long")
             for text in inputs[name]] + list(_MALFORMED.values())
    declined = Counter(explained_if_declined(text) for text in texts)
    assert declined[True] > 400 and declined[False] > 1800


@settings(max_examples=500, deadline=None)
@given(fibration_texts)
def test_every_declined_generated_text_is_explained(text):
    explained_if_declined(text)


@pytest.mark.parametrize("text, position", [
    ("S2(2,3; 1/2,1/3; ; -1/6", 2),
    ("S2(2,3); 1/2,1/3; ; -1/6; (", 26),
    ("(S2(2; 1/2; -1)", 0),  # the last ')' closes the inner '('
])
def test_unbalanced_open_parenthesis_is_positioned(text, position):
    with pytest.raises(ParseError) as info:
        parse_fibration(text)
    assert str(info.value) == "position %d: unbalanced '('" % position
    code, out, err = run("validate", text)
    assert (code, out, err) == (1, "", "error: position %d: unbalanced '('\n" % position)


@functools.cache
def _atlas_texts(max_order):
    """Every quotient and listed fibration of the --json atlas, once each."""
    code, out, _ = run("--json", "atlas", "--max-order", str(max_order))
    assert code == 0
    texts = {}
    for line in out.splitlines():
        obj = json.loads(line)
        texts.update(dict.fromkeys(m["quotient"] for m in obj["members"]))
        texts.update(dict.fromkeys(obj["fibrations"] or ()))
    return list(texts)


def test_text_and_json_modes_agree():
    """Each expression command gives the same exit code in text and --json
    mode, and the same stderr wherever either mode fails."""
    texts = _atlas_texts(60) + list(_MALFORMED.values())
    assert len(texts) > 200
    codes = Counter()
    for text in texts:
        for command in ("validate", "normalize", "classify", "fibrations", "lens"):
            code, _, err = run(command, text)
            json_code, _, json_err = run("--json", command, text)
            assert json_code == code, (command, text)
            if code:
                assert json_err == err, (command, text)
            codes[code] += 1
    assert codes[0] and codes[1]


# -- where blanks may go -------------------------------------------------------
#
# A blank may stand next to a ';', ',' or '/', and at either end of the
# text, without changing the value; a blank between two digits is a
# positioned parse error wherever the number stands.


_EXPRESSION_COMMANDS = ("validate", "normalize", "classify", "fibrations", "diffeo", "lens")


@functools.cache
def _valid_texts():
    """The atlas-60 quotients and fibrations and the expressions of the
    README's command-line examples: the arguments of its expression
    commands, not `chi`'s base or `quotient`'s group."""
    readme = []
    for line in _block("Command line", "sh").splitlines():
        if line.startswith("seifert"):
            command, *args = [a for a in shlex.split(line, comments=True)[1:] if a != "--json"]
            if command in _EXPRESSION_COMMANDS:
                readme += args
    assert len(readme) >= 8
    return _atlas_texts(60) + readme


def test_valid_texts_parse():
    for text in _valid_texts():
        parse_fibration(text)


def _insert_blank(data, text, points):
    at = data.draw(st.sampled_from(points))
    return text[:at] + " " + text[at:]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_blank_inside_a_number_is_an_error(data):
    texts = [t for t in _valid_texts() if re.search("[0-9]{2}", t)]
    text = data.draw(st.sampled_from(texts))
    split = _insert_blank(data, text, [m.end() for m in re.finditer("[0-9](?=[0-9])", text)])
    with pytest.raises(ParseError, match="^position "):
        parse_fibration(split)
    code, out, err = run("normalize", split)
    assert code == 1 and not out and err.startswith("error: position ")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_blank_beside_a_separator_keeps_the_value(data):
    text = data.draw(st.sampled_from(_valid_texts()))
    points = [0, len(text)] + [m.start() + k for m in re.finditer("[;,/]", text) for k in (0, 1)]
    want = parse_fibration(text)
    got = parse_fibration(_insert_blank(data, text, points))
    assert got == want and str(got) == str(want) and repr(got) == repr(want)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_leading_zeros_keep_the_value(data):
    """0s written before any label, order or Euler-class number, and before
    a numerator, leave the value as it was, and the pattern still takes
    the text; a disk's boundary bit takes no 0."""
    text = data.draw(st.sampled_from(_valid_texts()))
    notation = cli._fibration_patterns()[0]
    bit = notation.fullmatch(text).start(11)
    starts = [m.start() for m in re.finditer("(?<![0-9A-Z])[0-9]", text) if m.start() != bit]
    padded = text
    for at in sorted(data.draw(st.sets(st.sampled_from(starts), min_size=1)), reverse=True):
        padded = padded[:at] + "0" * data.draw(st.integers(1, 3)) + padded[at:]
    want = parse_fibration(text)
    got = cli._read_fibration(padded)
    assert got == want and str(got) == str(want) and repr(got) == repr(want), padded

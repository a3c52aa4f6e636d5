import io
import contextlib
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seifert_orbifolds import cli
from seifert_orbifolds.cli import (
    ParseError,
    build_parser,
    expression_report,
    parse_base,
    parse_fibration,
    run_command,
)
from seifert_orbifolds.core import Surface, normalize
from seifert_orbifolds.groups import enumerate_quotient_groups, quotient_hopf


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
        with pytest.raises(ParseError, match="position 6: invariant order must be >= 1"):
            parse_fibration("S2(2); 1/0; ; -1")
        code, out, err = run("classify", "D2; ; 1/0; -1; 0")
        assert code == 1 and not out and "position 5" in err

    def test_signs_and_spaces_accepted(self):
        f = parse_fibration("S2(2,2,3); +1/2, 1 / 2 ,1/3; ; - 4 / 3")
        assert str(normalize(f)) == "(S2(2,2,3); 1/2,1/2,1/3; -4/3)"

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

    @pytest.mark.parametrize("command", ["lens", "diffeo"])
    def test_guard_messages(self, command):
        # lens and diffeo share the classify guard and its wording
        good = "S2(2,2); 0/2,0/2; ; -1"
        for bad, message in (
            ("S2(2,2,3); 0/2,0/2,1/3; ; -1/2",
             "invalid fibration: invariant relation fails with residue -1/6"),
            ("S2(2,3,7); 1/2,1/3,1/7; ; 1/42", "not spherical: chi(base) <= 0 or e = 0"),
            ("S2; ; 0", "not spherical: chi(base) <= 0 or e = 0"),
        ):
            argvs = [(bad,)] if command == "lens" else [(bad, good), (good, bad)]
            for argv in argvs:
                assert run(command, *argv) == (1, "", "error: %s\n" % message)

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

    def test_out_file(self, tmp_path):
        target = tmp_path / "atlas.txt"
        code, out, _ = run("atlas", "--max-order", "30", "--out", str(target))
        assert code == 0 and target.read_text().strip()

    @pytest.mark.parametrize(
        "where, reason",
        [("missing/atlas.txt", "No such file or directory"), (".", "Is a directory")],
    )
    def test_unwritable_out_exits_1(self, tmp_path, where, reason):
        target = str(tmp_path / where)
        assert run("atlas", "--max-order", "3", "--out", target) == (
            1, "", "error: cannot write %s: %s\n" % (target, reason)
        )

    def test_unwritable_out_fails_before_the_sweep(self, tmp_path, monkeypatch):
        def sweep(max_order):
            raise AssertionError("the sweep ran before --out was opened")

        monkeypatch.setattr(cli, "_atlas_rows", sweep)
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


def test_huge_euler_class_is_answered_quickly():
    start = time.perf_counter()
    code, out, err = run("lens", "S2; ; -1000000007")
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (0, "L(1000000007,1)", "")

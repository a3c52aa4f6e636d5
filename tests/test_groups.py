import contextlib
import copy
import io
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from seifert_orbifolds import core, groups
from seifert_orbifolds.cli import run_command
from seifert_orbifolds.core import (
    FiberedOrbifold,
    Surface,
    normalize,
    reverse_orientation,
    validate,
)
from seifert_orbifolds.groups import (
    _TABLE,
    NO_INVARIANT_FIBRATION,
    Family,
    GroupFamily,
    NoInvariantFibration,
    UnsupportedFamilyError,
    enumerate_quotient_groups,
    group_order,
    parse_group,
    quotient_antihopf,
    quotient_families,
    quotient_hopf,
    swapped_group,
)

S2, RP2, D2 = Surface.SPHERE, Surface.PROJECTIVE_PLANE, Surface.DISK


def mk(surface, cones, corners, e, xi=None):
    return normalize(FiberedOrbifold.from_data(surface, cones, corners, e, xi))


class TestParsing:
    def test_parse_with_params(self):
        g = parse_group("F2(m=3,n=2)")
        assert g.family is Family.F2 and g.params == {"m": 3, "n": 2}

    def test_parse_fixed(self):
        assert parse_group("F20").family is Family.F20

    def test_parse_primed(self):
        assert parse_group("F1'(m=1,n=1,r=2,s=1)").family is Family.F1P

    def test_roundtrip(self):
        for text in ("F2(m=3,n=2)", "F11(m=1,n=2,r=3,s=1)", "F26''", "F33'(m=1,n=3)"):
            assert str(parse_group(text)) == text

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            parse_group("F35")

    def test_spaces_around_parameters(self):
        assert parse_group("F2( m = 3 , n = 2 )") == parse_group("F2(m=3,n=2)")

    @pytest.mark.parametrize("text", ["F2(m=1,m=2,n=3)", "F2(m=2,n=3, m = 2)"])
    def test_repeated_parameter_rejected(self, text):
        with pytest.raises(ValueError, match="parameter m is given twice"):
            parse_group(text)
        assert quotient_cli(text) == (1, "", "error: group parameter m is given twice\n")

    @pytest.mark.parametrize(
        "text",
        ["F2(m=\u0663,n=2)", "F2(m=\uff13,n=2)", "F2(m=+3,n=2)", "F2(m=3_0,n=2)",
         "F2(m=3.0,n=2)", "F2(m=,n=2)"],
        ids=["arabic-indic", "fullwidth", "sign", "separator", "decimal", "empty"],
    )
    def test_non_ascii_parameter_forms_rejected(self, text):
        with pytest.raises(ValueError, match="ASCII digits"):
            parse_group(text)

    @pytest.mark.parametrize(
        "text",
        ["F2((m=3,n=2)", "F2(m=3,n=2))", "F2(m=(3,n=2)", "F2(m=3),n=2)", "F2(m=3,n=2",
         "(F2)", "F2)(m=3,n=2)", "F20)", "(m=3,n=2)"],
    )
    def test_stray_parenthesis_rejected(self, text):
        """A '(' or ')' inside the parameter list, or anywhere but around
        the parameter list after a family name, is an unbalanced
        parenthesis, not a parameter name or value or a family name."""
        message = "unbalanced parentheses in group spec %r" % text
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_group(text)
        assert quotient_cli(text) == (1, "", "error: %s\n" % message)

    def test_parameter_longer_than_int_converts_is_named(self):
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        if not limit:
            pytest.skip("int() converts numbers of any length here")
        text = "F2(m=3,n=%s)" % ("7" * (limit + 1))
        message = "group parameter n too long: %d digits, at most %d" % (limit + 1, limit)
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_group(text)
        assert quotient_cli(text) == (1, "", "error: %s\n" % message)

    def test_constraints(self):
        with pytest.raises(ValueError):
            parse_group("F1(m=1,n=1,r=4,s=2)")  # gcd(s, r) != 1
        with pytest.raises(ValueError):
            parse_group("F33(m=2,n=1)")  # n = 1 excluded
        with pytest.raises(ValueError):
            parse_group("F34(m=2,n=3)")  # m must be odd
        with pytest.raises(ValueError):
            parse_group("F1'(m=2,n=1,r=2,s=1)")  # m must be odd


class TestOrders:
    def test_examples(self):
        assert group_order(parse_group("F2(m=3,n=2)")) == 24
        assert group_order(parse_group("F20")) == 288
        assert group_order(parse_group("F1'(m=1,n=1,r=2,s=1)")) == 1

    def test_sample_rows(self):
        assert group_order(parse_group("F1(m=2,n=3,r=5,s=2)")) == 60
        assert group_order(parse_group("F9(m=2)")) == 240
        assert group_order(parse_group("F11(m=1,n=2,r=3,s=1)")) == 24
        assert group_order(parse_group("F30")) == 7200
        assert group_order(parse_group("F34(m=3,n=5)")) == 30


class TestQuotientHopf:
    def test_f5(self):
        assert quotient_hopf(parse_group("F5(m=2)")) == mk(
            S2, [(0, 2), (2, 3), (2, 3)], [], F(-1, 3)
        )

    def test_f10_odd(self):
        assert quotient_hopf(parse_group("F10(m=1,n=3)")) == mk(
            D2, [(1, 2)], [(1, 3)], F(-1, 6), 1
        )

    def test_f12(self):
        assert quotient_hopf(parse_group("F12(m=1,n=2)")) == mk(
            D2, [], [(3, 4), (1, 2), (0, 2)], F(-1, 8), 1
        )

    def test_platonic_pairs_have_no_fibration(self):
        assert isinstance(quotient_hopf(parse_group("F20")), NoInvariantFibration)
        assert isinstance(quotient_hopf(parse_group("F26''")), NoInvariantFibration)

    @pytest.mark.parametrize("copy_of", [
        lambda x: pickle.loads(pickle.dumps(x)),
        lambda x: pickle.loads(pickle.dumps(x, protocol=0)),
        copy.deepcopy,
        copy.copy,
    ], ids=["pickle", "pickle-protocol-0", "deepcopy", "copy"])
    def test_marker_survives_pickle_and_copy_as_itself(self, copy_of):
        """The package tests the marker with `is`, so a copy must be it."""
        marker = quotient_hopf(parse_group("F20"))
        assert marker is NO_INVARIANT_FIBRATION
        assert copy_of(marker) is NO_INVARIANT_FIBRATION
        assert copy_of([marker, quotient_antihopf(parse_group("F5(m=2)"))]) == [
            NO_INVARIANT_FIBRATION, NO_INVARIANT_FIBRATION]

    def test_lens_families_not_implemented(self):
        with pytest.raises(UnsupportedFamilyError):
            quotient_hopf(parse_group("F1(m=1,n=1,r=3,s=1)"))
        with pytest.raises(UnsupportedFamilyError):
            quotient_hopf(parse_group("F11(m=1,n=2,r=3,s=1)"))

    def test_f12bis_rejected(self):
        with pytest.raises(UnsupportedFamilyError):
            quotient_hopf(parse_group("F12bis(m=2,n=2)"))

    def test_degenerate_parameters_rejected(self):
        for text in ("F2(m=1,n=1)", "F4(m=2,n=1)", "F12(m=2,n=1)", "F13(m=1,n=2)",
                     "F17(m=1)", "F4bis(m=1,n=2)"):
            with pytest.raises(ValueError):
                quotient_hopf(parse_group(text))

    def test_parity_dependent_bases(self):
        assert quotient_hopf(parse_group("F2bis(m=1,n=4)")).base == (
            mk(D2, [(1, 4)], [], F(-1, 4), 0).base
        )
        assert quotient_hopf(parse_group("F2bis(m=1,n=3)")).base.surface is RP2


class TestQuotientAntihopf:
    def test_f2(self):
        assert quotient_antihopf(parse_group("F2(m=3,n=2)")) == mk(
            RP2, [(1, 3)], [], F(2, 3)
        )

    def test_f2bis(self):
        assert quotient_antihopf(parse_group("F2bis(m=3,n=1)")) == mk(
            S2, [(2, 3), (1, 2), (1, 2)], [], F(1, 3)
        )

    def test_platonic_side(self):
        assert isinstance(quotient_antihopf(parse_group("F5(m=1)")), NoInvariantFibration)
        assert isinstance(quotient_antihopf(parse_group("F20")), NoInvariantFibration)

    def test_swap_out_of_range(self):
        # the swapped group leaves the tabulated range
        with pytest.raises(ValueError):
            quotient_antihopf(parse_group("F2bis(m=1,n=2)"))
        with pytest.raises(ValueError):
            quotient_antihopf(parse_group("F33(m=1,n=3)"))


class TestSignsAndValidity:
    def test_exhaustive_small_parameters(self):
        # all rows with 1 <= m, n <= 10 within the tabulated ranges
        checked = 0
        for family in Family:
            names = _TABLE[family].params
            if names not in (("m",), ("m", "n")):
                continue
            if family is Family.F12BIS:
                continue
            for m in range(1, 11):
                for n in range(1, 11) if len(names) == 2 else [None]:
                    params = {"m": m} if n is None else {"m": m, "n": n}
                    try:
                        g = GroupFamily(family, params)
                        h = quotient_hopf(g)
                    except (ValueError, UnsupportedFamilyError):
                        continue
                    if isinstance(h, NoInvariantFibration):
                        continue
                    assert validate(h).ok and h.euler < 0, (g, h)
                    checked += 1
                    try:
                        a = quotient_antihopf(g)
                    except ValueError:
                        continue
                    if not isinstance(a, NoInvariantFibration):
                        assert validate(a).ok and a.euler > 0, (g, a)
        assert checked > 200

    def test_quotient_bases_have_positive_chi(self):
        from seifert_orbifolds.core import euler_characteristic

        for g in enumerate_quotient_groups(200):
            h = quotient_hopf(g)
            assert euler_characteristic(h.base) > 0


def quotient_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(["quotient", *argv])
    return code, out.getvalue(), err.getvalue()


class TestTable:
    def test_one_row_per_family(self):
        assert list(_TABLE) == list(Family)

    def test_quotient_families_in_enum_order(self):
        assert quotient_families() == (
            Family.F2, Family.F2BIS, Family.F3, Family.F3BIS, Family.F4,
            Family.F4BIS, Family.F5, Family.F6, Family.F7, Family.F8, Family.F9,
            Family.F10, Family.F12, Family.F13, Family.F13BIS, Family.F14,
            Family.F15, Family.F16, Family.F17, Family.F18, Family.F19,
            Family.F33, Family.F33P, Family.F34, Family.F34BIS,
        )

    @pytest.mark.parametrize(
        "spec, reason",
        [
            ("F2(m=1,n=1)", "n = 1 merges into the lens-space families"),
            ("F4(m=2,n=1)", "n = 1 duplicates F3(m, 2)"),
            ("F4bis(m=1,n=2)", "m = 1 is not parameterized by the table"),
            ("F12(m=1,n=1)", "m = n = 1 falls into the infinitely-fibered regime"),
            ("F12(m=2,n=1)", "n = 1 duplicates F13(m, 2)"),
            ("F13(m=2,n=1)", "n = 1 duplicates F4bis(m, 1)"),
            ("F13bis(m=2,n=1)", "n = 1 falls into the infinitely-fibered regime"),
        ],
    )
    def test_rejection_messages(self, spec, reason):
        assert quotient_cli(spec) == (
            1, "", "error: quotient data is not defined for %s: %s\n" % (spec, reason)
        )

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("F1(m=1,n=1,r=4,s=2)", "F1 requires gcd(s, r) = 1"),
            ("F1'(m=1,n=1,r=3,s=3)", "F1' requires gcd(s, r) = 1"),
            ("F1'(m=2,n=1,r=2,s=1)", "F1' requires m, n odd and r even"),
            ("F11(m=1,n=1,r=2,s=2)", "F11 requires gcd(s, r) = 1"),
            ("F11'(m=1,n=1,r=3,s=1)", "F11' requires m, n odd and r even"),
            ("F33(m=2,n=1)", "F33 requires n != 1"),
            ("F33'(m=1,n=1)", "F33' requires n != 1"),
            ("F33'(m=2,n=3)", "F33' requires m, n odd"),
            ("F34(m=1,n=2)", "F34 requires m, n odd"),
            ("F34bis(m=2,n=1)", "F34bis requires m, n odd"),
        ],
    )
    def test_constraint_messages(self, spec, message):
        assert quotient_cli(spec) == (1, "", "error: %s\n" % message)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("F12bis(m=2,n=2)", "F12bis is reserved; its quotient data is not tabulated"),
            ("F1(m=1,n=1,r=3,s=1)", "quotient invariants for F1 are not implemented"),
            ("F11'(m=1,n=1,r=2,s=1)", "quotient invariants for F11' are not implemented"),
        ],
    )
    def test_unsupported_family_messages(self, spec, message):
        for side in ((), ("--anti-hopf",)):
            assert quotient_cli(spec, *side) == (2, "", "error: %s\n" % message)

    @pytest.mark.parametrize(
        "spec, canonical",
        [("F2(n=2,m=3)", "F2(m=3,n=2)"), ("F10(n=3,m=1)", "F10(m=1,n=3)"),
         ("F13(n=3,m=2)", "F13(m=2,n=3)")],
    )
    def test_parameters_read_by_name_not_position(self, spec, canonical):
        g, h = parse_group(spec), parse_group(canonical)
        assert str(g) == canonical
        assert g == h and hash(g) == hash(h)
        assert {g: "g"}[h] == "g" and {h: "h"}[g] == "h"
        assert group_order(g) == group_order(h)
        assert quotient_hopf(g) == quotient_hopf(h)
        assert quotient_antihopf(g) == quotient_antihopf(h)

    def test_antihopf_applies_only_the_swapped_ranges(self):
        g = parse_group("F2(m=1,n=1)")
        with pytest.raises(ValueError, match="lens-space families"):
            quotient_hopf(g)
        assert str(quotient_antihopf(g)) == "(RP2; ; 1)"
        assert quotient_cli("F2(m=1,n=1)", "--anti-hopf") == (0, "(RP2; ; 1)\n", "")

    @pytest.mark.parametrize("params", [{"m": 2.5, "n": 3}, {"m": 2, "n": 3.0}, {"m": "2", "n": 3}])
    def test_non_integral_parameters_rejected(self, params):
        with pytest.raises(ValueError, match="parameters must be integers"):
            GroupFamily(Family.F2, params)


class TestSwappedGroup:
    def test_swap_exchanges_m_and_n(self):
        assert swapped_group(parse_group("F2(m=3,n=2)")) == parse_group("F2bis(m=2,n=3)")
        assert swapped_group(parse_group("F10(m=1,n=3)")) == parse_group("F10(m=3,n=1)")

    def test_platonic_left_factor(self):
        assert swapped_group(parse_group("F5(m=2)")) is NO_INVARIANT_FIBRATION
        assert swapped_group(parse_group("F20")) is NO_INVARIANT_FIBRATION

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("F2bis(m=1,n=2)", "quotient data is not defined for F2(m=2,n=1): n = 1 merges"),
            ("F33(m=1,n=3)", "F33 requires n != 1"),
        ],
    )
    def test_same_errors_as_the_anti_hopf_quotient(self, spec, message):
        g = parse_group(spec)
        for op in (swapped_group, quotient_antihopf):
            with pytest.raises(ValueError, match=re.escape(message)):
                op(g)

    def test_anti_hopf_is_the_reversed_hopf_quotient_of_the_swap(self):
        checked = 0
        for g in enumerate_quotient_groups(200):
            try:
                swapped = swapped_group(g)
            except ValueError:
                with pytest.raises(ValueError):
                    quotient_antihopf(g)
                continue
            if swapped is NO_INVARIANT_FIBRATION:
                assert quotient_antihopf(g) is NO_INVARIANT_FIBRATION
                continue
            assert quotient_antihopf(g) == reverse_orientation(quotient_hopf(swapped))
            checked += 1
        assert checked > 200


    def test_anti_hopf_is_built_in_one_normal_form_pass(self, monkeypatch):
        """quotient_antihopf negates the swapped row's Hopf data and builds
        the value once; it neither builds the swapped group's Hopf
        quotient nor reverses an orientation."""
        original = groups._normal_form
        built = []

        def counted(*args):
            built.append(args)
            return original(*args)

        def refused(*args):
            raise AssertionError("called")

        monkeypatch.setattr(groups, "_normal_form", counted)
        monkeypatch.setattr(groups, "quotient_hopf", refused)
        monkeypatch.setattr(core, "reverse_orientation", refused)
        monkeypatch.setattr(groups, "reverse_orientation", refused, raising=False)
        g = parse_group("F2(m=3,n=2)")
        a = quotient_antihopf(g)
        assert len(built) == 1
        monkeypatch.undo()
        assert a == reverse_orientation(quotient_hopf(swapped_group(g)))


def _outcome(op, g):
    """op(g), or the type and message of the exception it raises."""
    try:
        return op(g)
    except (ValueError, UnsupportedFamilyError) as exc:
        return type(exc), str(exc)


class TestBuiltGroups:
    """`enumerate_parameters` and `swapped_group` build groups whose values
    they have just checked, without the constructor; those groups equal
    the constructor's in every respect."""

    def _built(self, max_order):
        out = []
        for g in enumerate_quotient_groups(max_order):
            out.append(g)
            try:
                swapped = swapped_group(g)
            except ValueError:
                continue
            if swapped is not NO_INVARIANT_FIBRATION:
                out.append(swapped)
        return out

    def test_equal_to_the_parsed_group(self):
        built = self._built(400)
        assert len(built) > 2000
        for g in built:
            parsed = parse_group(str(g))
            assert g == parsed and hash(g) == hash(parsed), g
            assert str(g) == str(parsed) and repr(g) == repr(parsed), g
            assert group_order(g) == group_order(parsed), g
            for op in (quotient_hopf, quotient_antihopf, swapped_group):
                assert _outcome(op, g) == _outcome(op, parsed), (g, op)

    def test_family_hashes_by_identity(self):
        assert Family.__hash__ is object.__hash__

    def test_family_is_built_from_the_table_rows(self):
        """48 members in the table's order, each named from its printed
        value by one rule: ' becomes P and bis becomes BIS."""
        assert len(Family) == 48 and list(Family) == list(_TABLE)
        for family in Family:
            assert family.name == family.value.replace("'", "P").replace("bis", "BIS")
        assert Family.F26PP.value == "F26''" and Family.F34BIS.value == "F34bis"

    def test_swap_is_a_member_or_marker_and_an_involution(self):
        swaps = {row.swap for row in _TABLE.values()}
        assert all(s is None or s is NO_INVARIANT_FIBRATION or type(s) is Family for s in swaps)
        fixed = set()
        for family, row in _TABLE.items():
            if type(row.swap) is Family:
                assert _TABLE[row.swap].swap is family, family
                if row.swap is family:
                    fixed.add(family)
        assert fixed == {Family.F10, Family.F12, Family.F33, Family.F33P}

    def test_surface_hashes_by_identity(self):
        assert Surface.__hash__ is object.__hash__

    def test_pickle_round_trip(self):
        for g in (parse_group("F2(n=2,m=3)"), parse_group("F20"), *self._built(40)):
            h = pickle.loads(pickle.dumps(g))
            assert h == g and hash(h) == hash(g) and str(h) == str(g) and repr(h) == repr(g)

    def test_pickled_groups_are_found_under_another_hash_seed(self):
        """Family hashes by identity, which differs between processes, so
        a hash kept through a pickle would not be found in another one."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        make = (
            "from seifert_orbifolds.groups import enumerate_quotient_groups, parse_group\n"
            "gs = set(enumerate_quotient_groups(100)) | {parse_group('F2(n=2,m=3)')}\n"
        )
        dump = make + "import pickle, sys\nsys.stdout.buffer.write(pickle.dumps(gs))\n"
        load = make + (
            "import pickle, sys\n"
            "hs = pickle.loads(sys.stdin.buffer.read())\n"
            "print(len(hs) == len(gs) > 500, hs == gs, all(g in gs for g in hs),"
            " all(g in hs for g in gs))\n"
        )

        def run(code, seed, stdin=b""):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", code], input=stdin, env=env, capture_output=True, check=True
            )
            return done.stdout

        assert run(load, "2", run(dump, "1")).decode().split() == ["True"] * 4

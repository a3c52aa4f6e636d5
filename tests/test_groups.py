import contextlib
import io
from fractions import Fraction as F

import pytest

from seifert_orbifolds.cli import run_command
from seifert_orbifolds.core import FiberedOrbifold, Surface, normalize, validate
from seifert_orbifolds.groups import (
    _TABLE,
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
)

S2, RP2, D2 = Surface.SPHERE, Surface.PROJECTIVE_PLANE, Surface.DISK


def mk(surface, cones, corners, e, xi=None):
    return normalize(FiberedOrbifold.from_data(surface, cones, corners, e, xi))


class TestParsing:
    def test_parse_with_params(self):
        g = parse_group("F2(m=3,n=2)")
        assert g.family is Family.F2 and g.m == 3 and g.n == 2

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

    @pytest.mark.parametrize(
        "text",
        ["F2(m=\u0663,n=2)", "F2(m=\uff13,n=2)", "F2(m=+3,n=2)", "F2(m=3_0,n=2)",
         "F2(m=3.0,n=2)", "F2(m=,n=2)"],
        ids=["arabic-indic", "fullwidth", "sign", "separator", "decimal", "empty"],
    )
    def test_non_ascii_parameter_forms_rejected(self, text):
        with pytest.raises(ValueError, match="ASCII digits"):
            parse_group(text)

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
        assert group_order(g) == group_order(h)
        assert quotient_hopf(g) == quotient_hopf(h)
        assert quotient_antihopf(g) == quotient_antihopf(h)

    def test_antihopf_applies_only_the_swapped_ranges(self):
        g = parse_group("F2(m=1,n=1)")
        with pytest.raises(ValueError, match="lens-space families"):
            quotient_hopf(g)
        assert str(quotient_antihopf(g)) == "(RP2; ; 1)"
        assert quotient_cli("F2(m=1,n=1)", "--anti-hopf") == (0, "(RP2; ; 1)\n", "")

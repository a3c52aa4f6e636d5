"""
Arbitrary text through the public entry points: the parsers raise only
ParseError or ValueError, and `run_command` returns an exit code in
{0, 1, 2, 3} without letting an exception escape.
"""

import contextlib
import io
import itertools
from fractions import Fraction
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seifert_orbifolds import cli, groups
from seifert_orbifolds.cli import parse_fibration, run_command
from seifert_orbifolds.groups import Family, parse_group

# Digits of other scripts, superscripts, vulgar fractions, full-width and
# mathematical digits, and a no-break space: int(), Fraction() and
# str.isdigit read some of them.
NON_ASCII = "٣۵३০๔០᠑²½⁴⅕①３\U0001d7d9\u00a0"
FIBRATION_ALPHABET = "S2RPD()/;,-0123456789 " + NON_ASCII
GROUP_ALPHABET = "F2bis'′(),=mn-0123456789 " + NON_ASCII

FIBRATION_TOKENS = ["S2", "RP2", "D2", "(", ")", ";", ",", "/", "-", "+", " ",
                    "0", "1", "2", "3", "4", "12", "99999999999"] + list(NON_ASCII[:4])
GROUP_TOKENS = ["F", "2", "3", "bis", "'", "′", "(", ")", "m", "n", "=", ",",
                "1", "4", "12", "0", "-1", "99999999999"] + list(NON_ASCII[:4])


def _joined(tokens):
    return st.lists(st.sampled_from(tokens), max_size=14).map("".join)


@st.composite
def expressions(draw):
    """Well-formed tuples over random labels, with the Euler class closing
    the sum relation or not, so that the text reaches the classifier; a
    label or a numerator is at times written in other digits.  On S2 and
    RP2 the corner slot is left blank or left out, and the tuple is at
    times wrapped in parentheses, as `str` prints it."""
    surface = draw(st.sampled_from(["S2", "RP2", "D2"]))
    labels = st.one_of(st.integers(1, 13), st.integers(1, 10**12))
    numerators = st.one_of(st.integers(-13, 13), st.integers(-(10**12), 10**12))
    cones = draw(st.lists(st.tuples(numerators, labels), max_size=4))
    corners = draw(st.lists(st.tuples(numerators, labels), max_size=4)) if surface == "D2" else []
    s = sum((Fraction(a, b) for a, b in cones), Fraction(0))
    s += sum((Fraction(a, b) for a, b in corners), Fraction(0)) / 2
    if draw(st.booleans()):
        e = -s - Fraction(draw(st.integers(0, 1)), 2) + draw(st.integers(-3, 3))
    else:
        e = Fraction(draw(numerators), draw(labels))
    text = draw(st.sampled_from([str, lambda v: str(v).replace("1", "١")]))
    base = "%s(%s;%s)" % (surface, ",".join(text(b) for _, b in cones),
                          ",".join(text(b) for _, b in corners))
    fields = [base,
              ",".join("%s/%s" % (text(a), text(b)) for a, b in cones),
              ",".join("%s/%s" % (text(a), text(b)) for a, b in corners),
              text(e)]
    if surface == "D2" and draw(st.booleans()):
        fields.append(str(draw(st.integers(0, 1))))
    elif surface != "D2" and draw(st.booleans()):
        del fields[2]
    return draw(st.sampled_from(["%s", "(%s)"])) % "; ".join(fields)


fibration_texts = st.one_of(
    st.text(FIBRATION_ALPHABET), _joined(FIBRATION_TOKENS), st.text(), expressions()
)
# Every family name with zero to three parameters of any size or spelling.
group_specs = st.builds(
    lambda family, params: "%s(%s)" % (family.value, ",".join("%s=%s" % kv for kv in params)),
    st.sampled_from(list(Family)),
    st.lists(st.tuples(st.sampled_from(["m", "n", "k"]),
                       st.one_of(st.integers(0, 40).map(str), st.integers(0, 10**12).map(str),
                                 st.text(GROUP_ALPHABET, max_size=3))),
             max_size=3),
)
group_texts = st.one_of(st.text(GROUP_ALPHABET), _joined(GROUP_TOKENS), st.text(), group_specs)

COMMANDS = ["validate", "normalize", "chi", "classify", "fibrations", "diffeo",
            "quotient", "lens", "atlas"]
FLAGS = ["--json", "--anti-hopf", "--max-order", "-h"]


@given(fibration_texts)
@settings(max_examples=500, deadline=None)
def test_parse_fibration_raises_only_value_errors(text):
    """`parse_fibration` reads a text with `_read_fibration` and, when that
    returns None, with the field walker: the first reader may decline any
    text, but a value it returns or an error it raises is the walker's."""
    def outcome(read):
        try:
            return read(text)
        except ValueError as exc:  # ParseError is a ValueError
            return "%s: %s" % (type(exc).__name__, exc)

    got, walked = outcome(cli._read_fibration), outcome(cli._walk_fibration)
    assert outcome(parse_fibration) == walked, text
    if got is not None:
        assert got == walked and str(got) == str(walked), text
        if not isinstance(got, str):
            assert type(got.euler) is Fraction and all(type(x) is int for x in got.xi), text


@given(group_texts)
@settings(max_examples=500, deadline=None)
def test_parse_group_raises_only_value_errors(text):
    try:
        parse_group(text)
    except ValueError:
        pass


@st.composite
def argvs(draw):
    head = draw(st.lists(st.sampled_from(["--json"]), max_size=1))
    command = draw(st.sampled_from(COMMANDS))
    args = draw(st.lists(st.one_of(fibration_texts, group_texts, st.sampled_from(FLAGS)),
                         max_size=3))
    return head + [command] + args


def _first_groups(real):
    # A fuzzed --max-order may be any number: the sweep is cut to its first
    # groups so that the run stays short; the bound is still parsed and
    # checked as given.
    return lambda max_order: itertools.islice(real(max_order), 12)


@given(st.one_of(argvs(), st.lists(st.one_of(fibration_texts, st.sampled_from(COMMANDS + FLAGS)),
                                   max_size=4)))
@settings(max_examples=500, deadline=None)
def test_run_command_returns_a_documented_exit_code(argv):
    # --out (or an abbreviation) would write a file named by the fuzz.
    assume(not any(arg.startswith("--o") for arg in argv))
    sweep = _first_groups(groups.enumerate_quotient_groups)
    with mock.patch.object(groups, "enumerate_quotient_groups", sweep), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run_command(argv)
    assert code in (0, 1, 2, 3), (argv, code)

"""The public classify functions validate once, and the atlas builds each
Hopf quotient once, checks each group once and computes each fibration
class once."""

import contextlib
import io
import json
import sys
from collections import Counter

import pytest

from seifert_orbifolds import classify, cli, core, groups
from seifert_orbifolds.classify import (
    are_diffeomorphic,
    diffeo_key,
    diffeo_signature,
    enumerate_bridges,
    enumerate_fibrations,
    fibration_class,
    fibration_count,
    single_step,
)
from seifert_orbifolds.cli import parse_fibration, run_command
from seifert_orbifolds.core import reverse_orientation
from seifert_orbifolds.groups import (
    NO_INVARIANT_FIBRATION,
    enumerate_quotient_groups,
    quotient_antihopf,
    quotient_hopf,
    swapped_group,
)
from test_rule_table import moves_out_of_the_finite_class

FINITE = parse_fibration("S2(2,2,4); 0/2,0/2,2/4; ; -1/2")  # three fibrations
INFINITE = parse_fibration("S2(2,2,3); 0/2,0/2,1/3; ; -1/3")  # bridged to a lens key


def _count_calls(monkeypatch, name):
    """Record the calls of classify.<name>, in every module that holds it."""
    original = getattr(classify, name)
    calls = []

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, result))
        return result

    for mod in (classify, cli):
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, wrapper)
    return calls


def _atlas_json(max_order):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run_command(["--json", "atlas", "--max-order", str(max_order)]) == 0
    return [json.loads(line) for line in buf.getvalue().splitlines()]


@pytest.mark.parametrize(
    "fn, args",
    [
        (fibration_class, (FINITE,)),
        (fibration_class, (INFINITE,)),
        (fibration_count, (FINITE,)),
        (fibration_count, (INFINITE,)),
        (enumerate_fibrations, (FINITE,)),
        (single_step, (FINITE,)),
        (enumerate_bridges, (INFINITE,)),
        (diffeo_key, (INFINITE,)),
        (diffeo_signature, (FINITE,)),
        (diffeo_signature, (INFINITE,)),
        (are_diffeomorphic, (FINITE, FINITE)),
        (are_diffeomorphic, (INFINITE, INFINITE)),
    ],
)
def test_one_guard_call_per_argument(monkeypatch, fn, args):
    guards = _count_calls(monkeypatch, "_require_normal_spherical")
    fn(*args)
    assert len(guards) == len(args)


def test_one_guard_call_per_anti_hopf_atlas_row(monkeypatch):
    """quotient_hopf already returns a check_valid normal form, so a Hopf
    row is not guarded again.  quotient_antihopf does too, but an anti-Hopf
    row is still guarded once: the guard is the atlas's only
    core.normalize call, and the benchmark's self-check fails an atlas
    that makes none."""
    guards = _count_calls(monkeypatch, "_require_normal_spherical")
    classes = _atlas_json(60)
    sides = Counter(m["side"] for obj in classes for m in obj["members"])
    assert sides["hopf"] and sides["anti-hopf"]
    assert len(guards) == sides["anti-hopf"]


def test_atlas_enumerates_each_finite_class_once(monkeypatch):
    enumerations = _count_calls(monkeypatch, "_enumerate_fibrations")
    classes = _atlas_json(60)
    sets = [frozenset(result) for _, result in enumerations]
    assert len(set(sets)) == len(sets)
    assert len(sets) == sum(1 for obj in classes if obj["count"] != "infinite")


@pytest.mark.parametrize("max_order", [60, 400])
def test_atlas_signature_matches_diffeo_signature(max_order):
    """Every member of a class has the signature the class is filed under,
    classes are numbered in order of first appearance, and the rows are
    exactly the members of the classes.  An anti-Hopf row joins the class
    of its group's Hopf quotient unclassified; its own signature, computed
    here, is that class's."""
    classes, rows = cli._atlas_classes(max_order)
    assert rows
    assert [cls[0] for cls in classes.values()] == list(range(len(classes)))
    for signature, cls in classes.items():
        for row in cls[3]:
            assert row[0] is cls
            assert diffeo_signature(parse_fibration(row[4])) == signature
    assert sorted(map(id, rows)) == sorted(id(row) for cls in classes.values() for row in cls[3])


def test_atlas_classifies_each_group_once(monkeypatch):
    """Both quotients of a group are fibrations of the one orbifold S^3/G,
    so the sweep classifies a group by its Hopf quotient, at most once, and
    never a value that only an anti-Hopf quotient gives (57 of the sweep's
    320 calls were anti-Hopf values when every row was classified)."""
    calls = _count_calls(monkeypatch, "_invariant")
    _atlas_json(60)
    hopf = Counter()
    anti = set()
    for g in enumerate_quotient_groups(60):
        hopf[quotient_hopf(g)] += 1
        try:
            a = quotient_antihopf(g)
        except ValueError:
            continue
        if a is not NO_INVARIANT_FIBRATION:
            anti.add(a)
    anti_only = anti - set(hopf)
    classified = Counter(f for (f,), _ in calls)
    assert calls and anti_only
    assert not anti_only & set(classified)
    assert all(n <= hopf[f] for f, n in classified.items())


def test_atlas_builds_each_hopf_quotient_once(monkeypatch):
    original = groups.quotient_hopf
    calls = Counter()

    def counted(g):
        calls[g] += 1
        return original(g)

    monkeypatch.setattr(groups, "quotient_hopf", counted)
    classes = _atlas_json(60)
    assert set(calls) == set(enumerate_quotient_groups(60))
    assert set(calls.values()) == {1}
    assert sum(len(obj["members"]) for obj in classes) > len(calls)


def test_atlas_reads_patterns_by_base_shape(monkeypatch):
    """Only the source patterns filed under a fibration's shape, its
    order-2 invariants included, read it, and a closure reads each member
    once by each of them, for its moves and its bridge rows alike: 28,413
    reads in the unindexed scan of this sweep, 7,327 when filed by surface
    and counts alone, 3,363 when filed by shape, 2,771 before a closure
    filed its readings, 1,999 while the bridge rows had an index of their
    own, 1,625 while a finite-class input was read twice, and 1,166 now."""
    original = classify._Pattern.read
    reads = []

    def counted(pattern, f):
        reads.append(f)
        return original(pattern, f)

    monkeypatch.setattr(classify._Pattern, "read", counted)
    _atlas_json(100)
    assert 0 < len(reads) <= 1200


def test_each_built_value_computes_the_relation_once(monkeypatch):
    """Every value the sweep derives (Hopf quotients, rewrites, bridge
    targets) comes from core._normal_form, which reduces the sum relation
    to integers once: to solve xi on a disk, to test it on S2 and RP2."""
    original_relation = core._twice_relation
    relations = []

    def counted_relation(*args):
        relations.append(args)
        return original_relation(*args)

    original = core._normal_form
    per_call = []

    def counted(*args):
        before = len(relations)
        f = original(*args)
        per_call.append(len(relations) - before)
        return f

    monkeypatch.setattr(core, "_twice_relation", counted_relation)
    for mod in (core, classify, groups):
        monkeypatch.setattr(mod, "_normal_form", counted)
    _atlas_json(60)
    assert len(per_call) > len(list(enumerate_quotient_groups(60)))
    assert set(per_call) == {1}


def test_atlas_anti_hopf_rows_equal_quotient_antihopf():
    """Every group of order <= 400 gets, as its anti-Hopf row, the
    orientation reversal of its swapped group's Hopf quotient, built here
    independently of quotient_antihopf, or no row where the swap raises or
    finds no invariant fibration."""
    swept = {}
    for _, group, _, side, quotient, _ in cli._atlas_classes(400)[1]:
        if side == "anti-hopf":
            swept[group] = parse_fibration(quotient)
    groups_seen = 0
    for g in enumerate_quotient_groups(400):
        try:
            swapped = swapped_group(g)
            a = None if swapped is NO_INVARIANT_FIBRATION else reverse_orientation(
                quotient_hopf(swapped))
        except ValueError:
            a = None
        assert swept.pop(str(g), None) == a, g
        groups_seen += 1
    assert swept == {} and groups_seen > 1000


def test_atlas_runs_no_group_constructor_check(monkeypatch):
    """The enumerator and the swap build the groups whose values they have
    just checked without the constructor: 1,167 re-checks in an atlas-100
    sweep when both went through GroupFamily(...)."""
    original = groups.GroupFamily.__post_init__
    checks = []

    def counted(g):
        checks.append(g)
        original(g)

    monkeypatch.setattr(groups.GroupFamily, "__post_init__", counted)
    classes = _atlas_json(60)
    assert classes and checks == []
    groups.GroupFamily(groups.Family.F2, {"m": 3, "n": 2})
    assert len(checks) == 1


def test_closures_read_each_added_member_once(monkeypatch):
    """A closure reads each member it adds exactly once, when it adds it,
    and does not decide that member's class again: the moves keep the
    finite class (classify's module docstring), which
    `tests/test_rule_table.py` checks over a grid that stands for every
    case."""
    read = _count_calls(monkeypatch, "_readings")
    classed = _count_calls(monkeypatch, "_read_class")
    original = classify._enumerate_fibrations
    closures = []

    def counted(f, *rest):
        before, classes = len(read), len(classed)
        members = original(f, *rest)
        closures.append((f, members, [args[0] for args, _ in read[before:]],
                         len(classed) - classes))
        return members

    monkeypatch.setattr(classify, "_enumerate_fibrations", counted)
    _atlas_json(60)
    assert sum(len(members) - 1 for _, members, _, _ in closures) > 50
    assert [(f, members, got) for f, members, got, _ in closures
            if sorted(map(str, got)) != sorted(str(h) for h in members if h != f)] == []
    assert sum(n for *_, n in closures) == 0


def test_closures_shape_each_member_once(monkeypatch):
    """A closure shapes each member but its input once, when it joins: one
    read of the member serves both its finiteness check and its moves.  Its
    input was shaped by the class check, whose readings it starts from."""
    original_shape = classify._shape
    shaped = []

    def counted_shape(f):
        shaped.append(f)
        return original_shape(f)

    original = classify._enumerate_fibrations
    closures = []

    def counted(f, *rest):
        before = len(shaped)
        members = original(f, *rest)
        closures.append((members, Counter(shaped[before:]), f))
        return members

    monkeypatch.setattr(classify, "_shape", counted_shape)
    monkeypatch.setattr(classify, "_enumerate_fibrations", counted)
    _atlas_json(100)
    assert Counter(len(members) for members, _, _ in closures)[3] > 20
    assert [(m, n) for m, n, f in closures if n != Counter(m - {f})] == []


def test_each_input_is_shaped_once(monkeypatch):
    """An `_invariant` call reads its input once: the readings that decide
    its class also start its closure, so no fibration is shaped twice in
    one call (357 of the 1,256 shapes of this sweep were a finite-class
    input shaped a second time), and a small-base input is not shaped at
    all.  single_step likewise shapes its input once, for its class check
    and its moves."""
    original_shape = classify._shape
    shaped = []

    def counted_shape(f):
        shaped.append(f)
        return original_shape(f)

    original = classify._invariant
    calls = []

    def counted(f):
        before = len(shaped)
        invariant = original(f)
        calls.append((f, invariant, Counter(shaped[before:])))
        return invariant

    monkeypatch.setattr(classify, "_shape", counted_shape)
    monkeypatch.setattr(classify, "_invariant", counted)
    _atlas_json(100)
    finite = [(f, n) for f, invariant, n in calls if isinstance(invariant, frozenset) and n]
    small = [n for f, _, n in calls if classify._small_base(f)]
    assert len(finite) > 300 and small
    assert [(f, n) for f, _, n in calls if any(k > 1 for k in n.values())] == []
    assert all(n[f] == 1 for f, n in finite)
    assert not any(small)
    assert len(shaped) <= 900  # 1,256 when each finite-class input was shaped twice
    del shaped[:]
    assert single_step(FINITE)
    assert shaped.count(FINITE) == 1


def test_closures_build_each_member_once(monkeypatch):
    """A closure reads each member when it joins and reuses the members it
    has filed, so it builds each member but its input once (2 or 4 builds
    for a two-member class and 6 or 8 for a three-member class when every
    member was rebuilt from every other), and none for the sporadic pairs,
    which are looked up."""
    original_build = classify._Pattern.build
    builds = []

    def counted_build(pattern, x, y):
        builds.append((pattern, x, y))
        return original_build(pattern, x, y)

    original = classify._enumerate_fibrations
    closures = []

    def counted(f, *rest):
        before = len(builds)
        members = original(f, *rest)
        closures.append((members, len(builds) - before))
        return members

    monkeypatch.setattr(classify._Pattern, "build", counted_build)
    monkeypatch.setattr(classify, "_enumerate_fibrations", counted)
    _atlas_json(100)
    sizes = Counter(len(members) for members, _ in closures)
    assert sizes[2] > 100 and sizes[3] > 20
    sporadic = set(classify._SPORADIC)
    wrong = [(m, n) for m, n in closures if n != (0 if m & sporadic else len(m) - 1)]
    assert wrong == []
    assert any(m & sporadic for m, _ in closures)


def test_the_grid_check_flags_a_rewrite_that_leaves_the_finite_class(monkeypatch):
    """With a bridge row holding for every fibration but FINITE itself,
    each of FINITE's moves leaves the finite class.  No closure re-checks
    its members at run time, so a table broken that way is caught by the
    grid check of `tests/test_rule_table.py`, which flags those moves."""
    original = classify._bridge

    def bridged_but_seed(f, readings):
        if f == FINITE:
            return original(f, readings)
        return "a bridge", f

    monkeypatch.setattr(classify, "_bridge", bridged_but_seed)
    flagged = moves_out_of_the_finite_class([FINITE])
    assert {f for _, f, _ in flagged} == {FINITE}
    assert {g for _, _, g in flagged} == single_step(FINITE) and len(single_step(FINITE)) == 2


def test_the_closure_stops_past_three_fibrations(monkeypatch):
    """The paper's bound of three fibrations is the closure's one run-time
    stop: with moves that yield four fresh fibrations, the closure raises
    it, past the memo and through enumerate_fibrations."""
    fresh = list(classify._SPORADIC)[:4]
    assert FINITE not in fresh

    def four_moves(f, readings, filed):
        return (("a move", h) for h in fresh)

    monkeypatch.setattr(classify, "_moves", four_moves)
    with pytest.raises(AssertionError, match="rewrite closure exceeded three fibrations"):
        classify._invariant.__wrapped__(FINITE)
    with pytest.raises(AssertionError, match="rewrite closure exceeded three fibrations"):
        enumerate_fibrations(FINITE)


_LENS_TEXTS = (
    "S2(5,3811); 1/5,3484/3811; ; -2176/19055",
    "(S2(5,3811); 1/5,3484/3811; -2176/19055)",  # as str() prints it
    "(D2(;8,3805); ; 1/8,3473/3805; -1149/60880; 1)",
    "(S2(2,2,3); 0/2,0/2,1/3; -1/3)",  # read through its bridge target
)
# the same values with a number written with a leading 0, which the
# pattern reader takes too
_LEADING_ZERO_TEXTS = (
    "(S2(05,3811); 1/5,3484/3811; -2176/19055)",
    "S2(5,3811); 1/5,3484/3811; ; -2176/019055",
)


@pytest.mark.parametrize("argv", [["lens"], ["--json", "lens"], ["diffeo", _LENS_TEXTS[1]]])
@pytest.mark.parametrize("text", _LENS_TEXTS + _LEADING_ZERO_TEXTS)
def test_command_converts_and_checks_each_expression_once(monkeypatch, argv, text):
    """The parser builds the value from the numbers it has converted and
    checked, so no constructor converts them again; the pattern reader
    takes each expression, leading 0s or not, so the field walker splits
    none; and each text is read and normalized once: diffeo given the same
    text twice reads it once, from the reading memo the second time."""
    calls = Counter()

    def counting(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    def reading(original):
        def wrapper(*args):
            f = original(*args)
            calls["_read_fibration" if f is not None else "declined"] += 1
            return f
        return wrapper

    for cls in (core.TwoOrbifold, core.FiberedOrbifold):
        monkeypatch.setattr(cls, "__post_init__",
                            counting(cls.__name__, cls.__post_init__))
    monkeypatch.setattr(cli, "_split_top", counting("_split_top", cli._split_top))
    monkeypatch.setattr(cli, "_read_fibration", reading(cli._read_fibration))
    wrapped = counting("normalize", core.normalize)
    for mod in (core, classify):
        monkeypatch.setattr(mod, "normalize", wrapped)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = run_command(argv + [text])
    assert code in (0, 3)  # 3: diffeo answered "not diffeomorphic"
    assert out.getvalue().startswith(("L(", "{", "diffeomorphic", "not diffeomorphic"))
    expressions = len({text, *argv[1:]}) if argv[0] == "diffeo" else 1
    assert calls == Counter(_read_fibration=expressions, normalize=expressions)


BROKEN = "S2(2,2,3); 0/2,0/2,1/3; ; -1/2"  # fails the sum relation


@pytest.mark.parametrize("argv, text_calls", [
    (["quotient", "F2(m=3,n=2)"], {"str": 1}),
    (["quotient", "F2(m=3,n=2)", "--anti-hopf"], {"str": 1}),
    (["validate", str(FINITE)], {"str": 1}),
    (["validate", str(INFINITE)], {"str": 1}),
    (["validate", BROKEN], {"str": 1}),
    (["normalize", str(INFINITE)], {"str": 1}),
    (["classify", str(FINITE)], {"_invariant": 1}),
    (["classify", str(INFINITE)], {"_invariant": 1}),
    (["classify", BROKEN], {}),
    (["fibrations", str(FINITE)], {"_invariant": 1, "str": 3}),
    (["fibrations", str(INFINITE)], {"_invariant": 1}),
])
def test_text_mode_computes_only_what_it_prints(monkeypatch, argv, text_calls):
    """Text-mode quotient prints no group order, text-mode validate and
    normalize print no classification, classify prints no fibration and
    fibrations prints only the fibrations it lists, so none of these is
    computed: each fibration printed costs one str call, and no other is
    made.  --json computes the report once: the group order once for
    quotient, and for an expression one normalize, one `_valid_spherical`
    pass (validity and sphericity in one), one validate only for an
    invalid fibration, to word its problems, and, for a valid spherical
    fibration, one _invariant call, counted in every module that holds
    them (fibrations checks its input through the guard in classify).  The
    reading memo is cleared between the two runs, so the --json run reads
    its text afresh."""
    calls = Counter()

    def counting(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    monkeypatch.setattr(groups, "group_order", counting("group_order", groups.group_order))
    monkeypatch.setattr(classify, "_invariant", counting("_invariant", classify._invariant))
    monkeypatch.setattr(core.FiberedOrbifold, "__str__",
                        counting("str", core.FiberedOrbifold.__str__))
    with contextlib.redirect_stdout(io.StringIO()):
        text_code = run_command(argv)
    assert calls == text_calls
    calls.clear()
    cli._reading.cache_clear()
    for name in ("normalize", "validate", "_valid_spherical"):
        wrapped = counting(name, getattr(core, name))
        for mod in (core, cli, classify):
            if getattr(mod, name, None) is getattr(core, name):
                monkeypatch.setattr(mod, name, wrapped)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        json_code = run_command(["--json"] + argv)
    assert json_code == text_code
    payload = json.loads(out.getvalue())
    del calls["str"]
    if argv[0] == "quotient":
        assert calls == {"group_order": 1} and payload["order"] == 24
    else:
        assert calls == Counter(normalize=1, _valid_spherical=1,
                                validate=int(not payload["valid"]),
                                _invariant=int(payload["count"] is not None))


# The README's three-member closure and one of its other members.
PARTNER = "D2(2;); 0/2; ; 2; 0"


@pytest.mark.parametrize("argv", [
    ["diffeo", str(FINITE), PARTNER],
    ["--json", "fibrations", str(FINITE)],
    ["classify", str(FINITE)],
])
def test_a_repeated_command_reads_the_invariant_memo(monkeypatch, argv):
    """The second run of a command in one process enumerates no closure and
    reads no representative, and answers with the same bytes and code."""
    enumerations = _count_calls(monkeypatch, "_enumerate_fibrations")
    representatives = _count_calls(monkeypatch, "_read_class")

    def run():
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = run_command(argv)
        return code, out.getvalue(), err.getvalue()

    first = run()
    assert enumerations and representatives
    del enumerations[:], representatives[:]
    assert run() == first
    assert enumerations == [] and representatives == []


def test_invariant_memo_values_are_immutable():
    """The memo hands the same value to every caller, so it stores a frozen
    set or a frozen DiffeoKey; the public enumerate_fibrations still returns
    a fresh set, and mutating it changes no later answer."""
    finite, infinite = classify._invariant(FINITE), classify._invariant(INFINITE)
    assert isinstance(finite, frozenset) and isinstance(infinite, classify.DiffeoKey)
    with pytest.raises(AttributeError):
        infinite.iota = (1, 1)
    signature = diffeo_signature(FINITE)
    members = enumerate_fibrations(FINITE)
    members.clear()
    members.add(INFINITE)
    assert diffeo_signature(FINITE) == signature == finite
    assert classify._invariant(FINITE) is finite


def test_library_counts_and_enumerations_read_the_invariant_memo(monkeypatch):
    """fibration_count and enumerate_fibrations answer from the memo: one
    closure serves a count and two enumerations, each enumeration is a
    fresh set, and clearing one leaves the memo's value as it was; an
    infinite class reads its representative once for both."""
    enumerations = _count_calls(monkeypatch, "_enumerate_fibrations")
    representatives = _count_calls(monkeypatch, "_read_class")
    assert fibration_count(FINITE) is classify.FibrationCount.THREE
    first, second = enumerate_fibrations(FINITE), enumerate_fibrations(FINITE)
    assert len(enumerations) == 1
    assert first == second and first is not second
    memo = classify._invariant(FINITE)
    first.clear()
    assert classify._invariant(FINITE) is memo and memo == second and len(memo) == 3
    del representatives[:]
    assert fibration_count(INFINITE) is classify.FibrationCount.INFINITE
    with pytest.raises(classify.InfiniteClassError):
        enumerate_fibrations(INFINITE)
    assert len(representatives) == 1 and len(enumerations) == 1


@pytest.mark.parametrize("fn", [fibration_class, single_step])
def test_finiteness_questions_build_no_closure(monkeypatch, fn):
    """fibration_class and single_step ask only whether the class is
    finite: on a cold memo they enumerate no closure and fill no entry."""
    enumerations = _count_calls(monkeypatch, "_enumerate_fibrations")
    fn(FINITE)
    assert enumerations == []
    assert classify._invariant.cache_info().currsize == 0


def test_invariant_memo_is_bounded():
    """An atlas-400 sweep asks for more distinct invariants than the memo
    holds, and the memo keeps at most its maxsize."""
    cli._atlas_classes(400)
    info = classify._invariant.cache_info()
    assert info.maxsize == classify._MEMO_MAXSIZE
    assert info.misses > info.maxsize >= info.currsize


def test_lens_paths_leave_the_invariant_memo_alone():
    """diffeo_key and seifert lens read the key on paths of their own: their
    inputs seldom repeat, and a memo entry would keep a large value alive.
    Neither the invariant memo nor the reading memo is read or filled."""
    memos = (classify._invariant, cli._reading)
    before = [memo.cache_info() for memo in memos]
    for text in _LENS_TEXTS:
        diffeo_key(parse_fibration(text))
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_command(["lens", text]) == 0
            assert run_command(["--json", "lens", text]) == 0
    assert [memo.cache_info() for memo in memos] == before


# One text of each kind the expression commands read, with whether it
# parses: a text that does not is not kept, and is read afresh each time.
_EXPRESSIONS = (
    (str(FINITE), True),
    (str(INFINITE), True),
    (BROKEN, True),  # the relation fails
    ("S2(3,3); 1/3,2/3; ; 0", True),  # valid, not spherical
    ("S2(2,2,04); 0/2,00/2,02/4; ; -1/02", True),  # FINITE with leading 0s
    ("S2(2,2; 1/2,1/2; ; -1", False),  # bad syntax
)


@pytest.mark.parametrize("flag", [[], ["--json"]])
@pytest.mark.parametrize("command", ["validate", "normalize", "classify", "fibrations",
                                     "diffeo"])
@pytest.mark.parametrize("text, parses", _EXPRESSIONS)
def test_a_repeated_expression_reads_the_reading_memo(monkeypatch, flag, command, text,
                                                      parses):
    """Run twice in one process, an expression command prints the same
    bytes, to stdout and stderr, and exits with the same code; the second
    run of a text that parsed neither parses, normalizes nor decides it
    again.  A bad-syntax text is read afresh and gets the field walker's
    positioned message again."""
    calls = Counter()

    def counting(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    monkeypatch.setattr(cli, "_read_fibration", counting("_read_fibration",
                                                          cli._read_fibration))
    monkeypatch.setattr(cli, "_explain_rejection", counting("_explain_rejection",
                                                             cli._explain_rejection))
    monkeypatch.setattr(core, "_valid_spherical", counting("_valid_spherical",
                                                            core._valid_spherical))
    wrapped = counting("normalize", core.normalize)
    for mod in (core, classify):
        monkeypatch.setattr(mod, "normalize", wrapped)
    argv = flag + [command, text] + ([PARTNER] if command == "diffeo" else [])

    def run():
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = run_command(argv)
        return code, out.getvalue(), err.getvalue()

    first = run()
    assert calls["_read_fibration"] and (calls["normalize"] or not parses)
    second = run()
    assert second == first
    if parses:
        assert calls == {}
    else:
        assert first[0] == 1 and first[2].startswith("error: position ")
        assert calls == {"_read_fibration": 1, "_explain_rejection": 1}


@pytest.mark.parametrize("limits", [(6000, 4300), (4300, 6000)])
def test_the_reading_memo_is_keyed_by_the_digit_limit(limits):
    """A text with a 5,000-digit Euler class reads under a digit limit of
    6,000 and is too long under 4,300.  Run under one limit and then the
    other in one process, `classify` prints what a fresh read prints under
    each: the kept reading of one limit is not served under the other."""
    argv = ["classify", "S2(2); 1/2; ; -" + "7" * 5000]

    def run(limit):
        sys.set_int_max_str_digits(limit)
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = run_command(argv)
        return code, out.getvalue(), err.getvalue()

    saved = sys.get_int_max_str_digits()
    try:
        fresh = []
        for limit in limits:
            cli._reading.cache_clear()
            fresh.append(run(limit))
        cli._reading.cache_clear()
        in_turn = [run(limit) for limit in limits]
    finally:
        sys.set_int_max_str_digits(saved)
    assert in_turn == fresh
    by_limit = dict(zip(limits, fresh))
    assert by_limit[6000][:2] == (1, "invalid: invariant relation fails with residue -1/2\n")
    assert by_limit[4300][0] == 1 and "position 15: number too long" in by_limit[4300][2]


def test_reading_memo_is_bounded_like_the_invariant_memo():
    """The reading memo holds at most as many texts as the invariant memo
    holds normal forms, and drops the least recently read beyond that."""
    assert cli._reading.cache_info().maxsize == classify._MEMO_MAXSIZE
    for k in range(classify._MEMO_MAXSIZE + 1):
        cli._reading("S2; ; -%d" % (k + 1))
    info = cli._reading.cache_info()
    assert info.currsize == info.maxsize and info.misses == classify._MEMO_MAXSIZE + 1
    cli._reading("S2; ; -1")
    assert cli._reading.cache_info().misses == info.misses + 1

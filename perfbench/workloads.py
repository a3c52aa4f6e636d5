"""Inputs, operations and output checks of the workloads.

Every workload is a closed loop with one client: an operation starts when
the previous one has returned.  Operations come in rounds of a fixed make-up
and a run attempts whole rounds only, so the share of failed operations is
the same in every run.  Outputs are kept during the timed loop and checked
against `oracles` afterwards.
"""

from __future__ import annotations

import io
import itertools
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd

import oracles as O

ATLAS_ORDER = 100
QUOTIENT_MAX_ORDER = 110
CORPUS_SIZE = 500
CORPUS_QUOTIENTS = 460
LABEL_CAP = 10000  # largest lens order and base label the program accepts by default


def call_cli(lib, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = lib.cli.run_command(argv)
    return code, out.getvalue()


def structurally_infinite(f: O.Fib) -> bool:
    """Shapes with infinitely many fibrations whatever the invariants."""
    if f.surface == "S2":
        return len(f.cones) <= 2
    if f.surface == "D2":
        return not f.cones and len(f.corners) <= 2
    return not f.cones and abs(f.euler) == 1


def key_order(cls: str, p: int, iota) -> int:
    """Orbifold order implied by a lens key: p*iota1*iota2 on the sphere
    side, twice that on the disk side, whose double cover is 2:1."""
    return p * iota[0] * iota[1] * (2 if cls == "disk" else 1)


class Entry:
    """One expression of a corpus with what is known of it by construction."""

    __slots__ = ("fib", "text", "valid", "lens", "group", "side")

    def __init__(self, fib, valid=True, lens=None, group=None, side="hopf"):
        self.fib = fib
        self.text = fib.text()
        self.valid = valid
        self.lens = lens  # expected (p, q), up to q <-> 1/q
        self.group = group  # the group spec of a quotient
        self.side = side  # and the side it was taken on


def lens_vector(rng, p, q):
    """A random flow vector (alpha, beta) for L(p, q) with alpha <= 8
    coprime to p and |w2| <= LABEL_CAP."""
    while True:
        alpha = rng.randint(1, 8)
        if gcd(alpha, p) != 1:
            continue
        lo, hi = -((alpha * q + LABEL_CAP) // p), (LABEL_CAP - alpha * q) // p
        betas = [b for b in range(lo, hi + 1)
                 if gcd(alpha, b) == 1 and 0 < abs(alpha * q + b * p) <= LABEL_CAP]
        if betas:
            return alpha, rng.choice(betas)


def random_unit(rng, p):
    while True:
        q = rng.randint(1, p - 1)
        if gcd(q, p) == 1:
            return q


def lens_entry(rng, p, q, mirror=False, disk=False):
    alpha, beta = lens_vector(rng, p, q)
    f = O.lens_fibration(p, q, alpha, beta)
    if mirror:
        f, q = f.mirror(), -q % p
    if disk:
        f = O.disk_side(f)
    return Entry(f, lens=(p, q))


# -- atlas --------------------------------------------------------------------


class Atlas:
    """`seifert --json atlas --max-order 100` commands, one per round.

    The input does not depend on the seed.  The package is imported afresh
    before every command, so nothing it keeps from one command reaches the
    next: each orbifold is classified once at the top of a command, and a
    cache across calls cannot show here.
    """

    name = "atlas"
    tail_pct = None
    trace_rounds = 1
    mem_rounds = 1

    def __init__(self, lib, seed, order=ATLAS_ORDER):
        self.lib = lib
        self.argv = ["--json", "atlas", "--max-order", str(order)]

    def fresh(self):
        self.lib.reload()

    def rounds(self):
        while True:
            yield [self.argv]

    def run(self, argv):
        return call_cli(self.lib, argv)

    def is_failure(self, op, result):
        return False

    def work_units(self, op, result):
        """Quotient rows catalogued: the atlas's throughput unit."""
        return sum(len(json.loads(line)["members"]) for line in result[1].splitlines())

    def check(self, op, result):
        code, out = result
        if code != 0:
            return ["atlas exited %d" % code]
        errors = []
        class_of = {}
        lines = out.splitlines()
        for cid, line in enumerate(lines):
            obj = json.loads(line)
            errors += self._check_class(cid, obj, class_of)
        if not lines:
            errors.append("atlas printed nothing")
        return errors

    def _check_class(self, cid, obj, class_of):
        errors = []
        where = "atlas class %d" % cid
        if obj["class"] != cid:
            errors.append("%s: out of order (%r)" % (where, obj["class"]))
        orders = set()
        normal = set()
        for m in obj["members"]:
            f = O.parse(m["quotient"])
            order = O.orbifold_order(f)
            normal.add(f.canonical())
            if not O.relation_holds(f):
                errors.append("%s: %s breaks the sum relation" % (where, m["quotient"]))
            if order != m["order"]:
                errors.append("%s: %s has 4|e|/chi^2 = %s, group order %d"
                              % (where, m["quotient"], order, m["order"]))
            if (f.euler < 0) != (m["side"] == "hopf"):
                errors.append("%s: %s has the wrong Euler sign for %s"
                              % (where, m["quotient"], m["side"]))
            orders.add(m["order"])
            # a group's Hopf and anti-Hopf quotients are one oriented orbifold
            if class_of.setdefault(m["group"], cid) != cid:
                errors.append("%s: the two sides of %s fall in different classes"
                              % (where, m["group"]))
        if len(orders) != 1:
            errors.append("%s: members of orders %s in one class" % (where, sorted(orders)))
        order = orders.pop() if len(orders) == 1 else None
        if obj["fibrations"] is None:
            key = obj["diffeo_key"]
            if obj["count"] != "infinite" or key is None:
                errors.append("%s: no fibrations but count %r" % (where, obj["count"]))
            elif order is not None and key_order(key["class"], key["lens"]["p"],
                                                 key["iota"]) != order:
                errors.append("%s: key %s does not give order %d" % (where, key, order))
        else:
            fibs = [O.parse(s) for s in obj["fibrations"]]
            if obj["count"] != len(fibs) or not 1 <= len(fibs) <= 3:
                errors.append("%s: count %r for %d fibrations"
                              % (where, obj["count"], len(fibs)))
            for g in fibs:
                if not O.relation_holds(g) or O.orbifold_order(g) != order:
                    errors.append("%s: listed fibration %s is inconsistent"
                                  % (where, g.text()))
            if not normal <= {g.canonical() for g in fibs}:
                errors.append("%s: a member is missing from its own fibration list" % where)
        return errors


# -- queries ------------------------------------------------------------------

_BAD_SYNTAX = (
    "S2(2,2; 1/2,1/2; ; -1",
    "X2; ; -1",
    "S2(2,2); 1/2; ; -1",
    "S2; ; abc",
    "D2(;2,2,4); ; 3/4,1/2,0/2; -1/8; 2",
    "S2(0); 0/1; ; -1",
    "RP2(3); 1/3; 1/2; -1/3",
    "",
)
_BAD_GROUPS = (("F2(m=3)", 1), ("F99", 1), ("F1(m=1,n=1,r=1,s=1)", 2))

COMMANDS = ("validate", "normalize", "classify", "fibrations", "lens", "diffeo", "quotient")
STRATA = 7  # valid queries per command in a round, one from each stratum
# the one invalid query per command in a round
_INVALID = {"validate": "broken", "normalize": "syntax", "classify": "broken",
            "fibrations": "syntax", "lens": "broken", "diffeo": "syntax",
            "quotient": "bad-group"}
# Lens spaces over the cap, with their labels from the quotient model; the
# inputs do not depend on the seed.  Each round holds one `lens` query on
# one of them.  The program refuses them, so they are counted as failed
# until the cap goes.
_OVER_CAP = (
    Entry(O.Fib("S2", [], [], -1000000007), lens=(1000000007, 1)),
    Entry(O.Fib("S2", [], [], 1000000007), lens=(1000000007, 1000000006)),
    Entry(O.lens_fibration(10007, 2, 1, 0), lens=(10007, 2)),
    Entry(O.lens_fibration(20011, 10003, 1, 0), lens=(20011, 10003)),
)


def strata(items, n, entry=lambda item: item):
    """`items` ranked by the orbifold order of their entry, cut into `n`
    runs of equal size."""
    ranked = sorted(items, key=lambda item: (O.orbifold_order(entry(item).fib),
                                             entry(item).text))
    return [ranked[k * len(ranked) // n:(k + 1) * len(ranked) // n] for k in range(n)]


class Queries:
    """A seeded stream of single `seifert` commands, half of them --json.

    Each round holds, for each of the seven commands, one query from each
    of seven strata of its inputs and one invalid query, in a seeded order.
    Expressions come from the corpus of ROADMAP item 1 (quotients of order
    <= 110, S^3 fibrations over S2(u, v) with u, v <= 7, random RP2
    orbifolds); `lens` draws from those S^3 fibrations and lens space
    fibrations built from the quotient model.
    """

    name = "queries"
    tail_pct = 99
    trace_rounds = 40
    mem_rounds = 20

    def __init__(self, lib, seed, small=False):
        self.lib = lib
        self.rng = random.Random(seed)
        self._build_corpus(small)
        self.seen_argv, self.seen_exprs = set(), set()
        self.argv_repeats = self.expr_repeats = self.checked = 0

    def fresh(self):
        pass

    def repeats(self):
        """How often inputs repeated, over the queries checked so far."""
        return ("of %d queries, %.3f repeat an earlier command line and %.3f earlier "
                "expressions" % (self.checked, self.argv_repeats / self.checked,
                                 self.expr_repeats / self.checked))

    def _build_corpus(self, small):
        """The 500 expressions of `_corpus_500` in tests/test_acceptance.py,
        built here, with the RP2 samples drawn from the seed."""
        lib, rng = self.lib, self.rng
        corpus, self.pairs = [], []
        for g in lib.groups.enumerate_quotient_groups(40 if small else QUOTIENT_MAX_ORDER):
            hopf = Entry(O.parse(str(lib.groups.quotient_hopf(g))), group=str(g))
            corpus.append(hopf)
            try:
                anti = lib.groups.quotient_antihopf(g)
            except ValueError:
                anti = None
            if anti is not None and not isinstance(anti, lib.groups.NoInvariantFibration):
                anti = Entry(O.parse(str(anti)), group=str(g), side="anti-hopf")
                corpus.append(anti)
                self.pairs.append((hopf, anti))
            if len(corpus) >= CORPUS_QUOTIENTS:
                break
        quotients = list(corpus)
        s3 = []
        for u in range(1, 8):
            for v in range(1, 8):
                if gcd(u, v) == 1:
                    ubar = pow(u, -1, v) if v > 1 else 0
                    f = O.Fib("S2", [((1 - u * ubar) // v, u), (ubar, v)], [],
                              Fraction(-1, u * v))
                    s3.append(Entry(f, lens=(1, 0)))
        corpus += s3
        while len(corpus) < CORPUS_SIZE:
            b = rng.randint(2, 9)
            x = rng.randint(0, b - 1)
            corpus.append(Entry(O.Fib("RP2", [(x, b)], [], -rng.randint(1, 4) - Fraction(x, b))))
        self.corpus = corpus[:CORPUS_SIZE]
        lens_spaces = []
        for _ in range(60 if small else 180):
            p = rng.randint(2, 400)
            lens_spaces.append(lens_entry(rng, p, random_unit(rng, p),
                                          rng.random() < 0.5, rng.random() < 0.25))
        self.strata = strata(self.corpus, STRATA)
        self.lens_strata = strata(s3 + lens_spaces, STRATA)
        self.quotient_strata = strata(quotients, STRATA)
        self.pair_strata = strata(self.pairs, STRATA // 2, entry=lambda pair: pair[0])

    def _query(self, cmd, j, json_flag):
        """(argv, expected exit code, what to check in the output) of the
        valid query of `cmd` in stratum `j`."""
        rng = self.rng
        flag = ["--json"] if json_flag else []
        if cmd == "quotient":
            entry = rng.choice(self.quotient_strata[j])
            side = ["--anti-hopf"] if entry.side == "anti-hopf" else []
            return flag + ["quotient", entry.group] + side, 0, ("quotient", entry.side)
        if cmd == "diffeo":
            # a group's Hopf and anti-Hopf quotients are diffeomorphic;
            # orbifolds of different order are not
            if j % 2:
                f, g = rng.choice(self.pair_strata[j // 2])
                return flag + ["diffeo", f.text, g.text], 0, None
            # 4|e|/chi^2 is the order only over a good base, as quotients have
            f = rng.choice(self.quotient_strata[j])
            while True:
                g = rng.choice(self.quotient_strata[rng.randrange(STRATA)])
                if O.orbifold_order(f.fib) != O.orbifold_order(g.fib):
                    return flag + ["diffeo", f.text, g.text], 3, None
        entry = rng.choice((self.lens_strata if cmd == "lens" else self.strata)[j])
        return flag + [cmd, entry.text], 0, ("expr", entry)

    def _invalid(self, cmd, json_flag):
        rng = self.rng
        flag = ["--json"] if json_flag else []
        kind = _INVALID[cmd]
        if kind == "syntax":
            extra = [rng.choice(self.corpus).text] if cmd == "diffeo" else []
            return flag + [cmd, rng.choice(_BAD_SYNTAX)] + extra, 1, None
        if kind == "bad-group":
            spec, code = rng.choice(_BAD_GROUPS)
            return flag + ["quotient", spec], code, None
        # the sum relation broken; the boundary bit is explicit, so the
        # parser cannot repair it
        pool = self.lens_strata if cmd == "lens" else self.strata
        f = rng.choice(rng.choice(pool)).fib
        entry = Entry(O.Fib(f.surface, f.cones, f.corners, f.euler + Fraction(1, 3), f.xi),
                      valid=False)
        return flag + [cmd, entry.text], 1, ("expr", entry)

    def rounds(self):
        rng = self.rng
        for n in itertools.count():
            ops = []
            for cmd in COMMANDS:
                flags = [True, False] * ((STRATA + 1) // 2)
                rng.shuffle(flags)
                ops += [self._query(cmd, j, flags[j]) for j in range(STRATA)]
                ops.append(self._invalid(cmd, flags[STRATA]))
            entry = _OVER_CAP[n % len(_OVER_CAP)]
            ops.append((["--json"] * (n % 2) + ["lens", entry.text], 0, ("over-cap", entry)))
            rng.shuffle(ops)
            yield ops

    def run(self, op):
        return call_cli(self.lib, op[0])

    def is_failure(self, op, result):
        return op[2] is not None and op[2][0] == "over-cap" and result[0] != 0

    def work_units(self, op, result):
        return 1

    def check(self, op, result):
        argv, expected, what = op
        code, out = result
        exprs = tuple(a for a in argv if not a.startswith("--"))[1:]
        self.checked += 1
        self.argv_repeats += tuple(argv) in self.seen_argv
        self.expr_repeats += exprs in self.seen_exprs
        self.seen_argv.add(tuple(argv))
        self.seen_exprs.add(exprs)
        if self.is_failure(op, result):
            return []  # counted as failed
        if code != expected:
            return ["%r exited %r, expected %d" % (argv, code, expected)]
        if what is None or (code != 0 and not out):
            return []
        json_mode = argv[0] == "--json"
        cmd = argv[1] if json_mode else argv[0]
        try:
            if what[0] == "quotient":
                return _check_quotient(argv, out, json_mode, what[1])
            entry = what[1]
            if json_mode:
                payload = json.loads(out)
                if cmd == "lens":
                    return _check_lens(argv, entry, payload["lens"]["p"], payload["lens"]["q"])
                return _check_report(argv, entry, payload, self.lib.report_problems)
            return _check_text(argv, cmd, entry, out)
        except (ValueError, KeyError, TypeError) as exc:
            return ["%r: unreadable output %r (%s)" % (argv, out[:200], exc)]


def _check_lens(argv, entry, p, q):
    want_p, want_q = entry.lens
    if not O.same_lens(want_p, want_q, p, q):
        return ["%r gave L(%d,%d), expected L(%d,%d)" % (argv, p, q, want_p, want_q)]
    return []


def _check_fibration_list(argv, entry, texts):
    fibs = [O.parse(t) for t in texts]
    order = O.orbifold_order(entry.fib)
    errors = []
    if not 1 <= len(fibs) <= 3:
        errors.append("%r listed %d fibrations" % (argv, len(fibs)))
    if entry.fib.canonical() not in {g.canonical() for g in fibs}:
        errors.append("%r: the input is not among its own fibrations" % (argv,))
    for g in fibs:
        if not O.relation_holds(g) or O.orbifold_order(g) != order:
            errors.append("%r: listed %s is not a fibration of order %s"
                          % (argv, g.text(), order))
    return errors


def _check_key(argv, entry, cls, p, q, iota):
    if entry.lens is not None:
        errors = _check_lens(argv, entry, p, q)
        want_cls = "disk" if entry.fib.surface == "D2" else "sphere"
        if cls != want_cls:
            errors.append("%r: key class %s, expected %s" % (argv, cls, want_cls))
        return errors
    # 4|e|/chi^2 is the orbifold order over a good base, which quotients have
    if entry.group is not None and key_order(cls, p, iota) != O.orbifold_order(entry.fib):
        return ["%r: key (%s, L(%d,%d), %s) does not give order %s"
                % (argv, cls, p, q, iota, O.orbifold_order(entry.fib))]
    return []


def _check_report(argv, entry, payload, schema_problems):
    errors = ["%r: schema: %s" % (argv, msg) for msg in schema_problems(payload)]
    normalized = O.parse(payload["normalized"])
    if not O.is_normal_form_of(normalized, entry.fib):
        errors.append("%r: %s is not the normal form" % (argv, payload["normalized"]))
    if payload["valid"] != entry.valid:
        errors.append("%r: valid=%r" % (argv, payload["valid"]))
    if payload["chi"] != O.fmt_rational(O.chi(entry.fib)):
        errors.append("%r: chi %s" % (argv, payload["chi"]))
    if not entry.valid:
        return errors
    if not payload["spherical"]:
        return errors + ["%r: a spherical input reported as not spherical" % (argv,)]
    if payload["count"] == "infinite":
        key = payload["diffeo_key"]
        errors += _check_key(argv, entry, key["class"], key["lens"]["p"], key["lens"]["q"],
                             key["iota"])
    else:
        if structurally_infinite(entry.fib):
            errors.append("%r: count %r for an infinite shape" % (argv, payload["count"]))
        errors += _check_fibration_list(argv, entry, payload["fibrations"])
        if payload["count"] != len(payload["fibrations"]):
            errors.append("%r: count %r disagrees with the list" % (argv, payload["count"]))
    return errors


_KEY_LINE = re.compile(r"infinitely many fibrations; key: class=(\w+) lens=L\((\d+),(\d+)\) "
                       r"iota=\((\d+),(\d+)\) mode=[\w-]+$")
_LENS_LINE = re.compile(r"L\((\d+),(\d+)\)$")


def _check_text(argv, cmd, entry, out):
    out = out.rstrip("\n")
    if cmd in ("validate", "normalize"):
        text = out
        if cmd == "validate":
            if not entry.valid:
                return []  # "invalid: ..." and exit 1, checked already
            if not out.startswith("ok: "):
                return ["%r printed %r" % (argv, out)]
            text = out[len("ok: "):]
        if O.is_normal_form_of(O.parse(text), entry.fib):
            return []
        return ["%r printed %r" % (argv, out)]
    if not entry.valid:
        return []
    if cmd == "classify":
        count = out.rpartition(": ")[2]
        if count not in ("1", "2", "3", "infinite") or \
                (structurally_infinite(entry.fib) and count != "infinite"):
            return ["%r printed %r" % (argv, out)]
        return []
    if cmd == "lens":
        m = _LENS_LINE.match(out)
        if not m:
            return ["%r printed %r" % (argv, out)]
        return _check_lens(argv, entry, int(m.group(1)), int(m.group(2)))
    # fibrations
    m = _KEY_LINE.match(out)
    if m:
        return _check_key(argv, entry, m.group(1), int(m.group(2)), int(m.group(3)),
                          (int(m.group(4)), int(m.group(5))))
    if structurally_infinite(entry.fib):
        return ["%r listed fibrations for an infinite shape" % (argv,)]
    return _check_fibration_list(argv, entry, out.splitlines())


def _check_quotient(argv, out, json_mode, side):
    if json_mode:
        payload = json.loads(out)
        if payload["fibration"] is None:
            return [] if side == "anti-hopf" else ["%r: no Hopf fibration" % (argv,)]
        text, order = payload["fibration"], payload["order"]
    else:
        text, order = out.strip(), None
        if text.endswith("side"):  # "... preserves no fibration on the anti-Hopf side"
            return [] if side == "anti-hopf" else ["%r printed %r" % (argv, text)]
    f = O.parse(text)
    errors = []
    if not O.relation_holds(f) or (f.euler < 0) != (side == "hopf"):
        errors.append("%r: %s is not a %s quotient" % (argv, text, side))
    if order is not None and O.orbifold_order(f) != order:
        errors.append("%r: 4|e|/chi^2 of %s is not the group order %d" % (argv, text, order))
    return errors


# -- lens ---------------------------------------------------------------------

LENS_P_BANDS = ((2, 100), (100, 1000), (1000, 3000), (3000, 6000), (6000, 10000))
LENS_Q_BANDS = 4  # quarters of [1, p) for the expected label q
LENS_KINDS = ("key", "lens", "lens-json")


class Lens:
    """Recognition of lens spaces L(p, q) with p up to 9,999.

    Each round holds one orbifold from each cell of five bands of p and
    four quarters of q/p, so every round holds the same spread of sweep
    length in `lens._lens_label`.  The orbifolds come from the quotient
    model with a random flow vector; half are mirrored (the label is then
    drawn for the mirror image) and a quarter are taken on the disk side,
    whose boundary double cover is the lens space fibration.  Each is asked
    as `classify.diffeo_key` on the parsed expression, as `seifert lens` or
    as `seifert --json lens`, in turn.
    """

    name = "lens"
    tail_pct = 99
    trace_rounds = 10
    mem_rounds = 20

    def __init__(self, lib, seed, small=False):
        self.lib = lib
        self.rng = random.Random(seed)
        self.bands = LENS_P_BANDS[:3] if small else LENS_P_BANDS

    def fresh(self):
        pass

    def _entry(self, lo, hi, k):
        rng = self.rng
        p = rng.randrange(lo, hi)
        units = [q for q in range(k * p // LENS_Q_BANDS, (k + 1) * p // LENS_Q_BANDS)
                 if gcd(q, p) == 1 and q] or [1]
        q = rng.choice(units)
        mirror, disk = rng.random() < 0.5, rng.random() < 0.25
        # the mirror image of L(p, -q) is L(p, q)
        return lens_entry(rng, p, -q % p if mirror else q, mirror, disk)

    def rounds(self):
        rng = self.rng
        n = 0
        while True:
            ops = []
            for lo, hi in self.bands:
                for k in range(LENS_Q_BANDS):
                    ops.append((LENS_KINDS[n % len(LENS_KINDS)], self._entry(lo, hi, k)))
                    n += 1
            rng.shuffle(ops)
            yield ops

    def run(self, op):
        kind, entry = op
        if kind == "key":
            return self.lib.classify.diffeo_key(self.lib.cli.parse_fibration(entry.text))
        return call_cli(self.lib, ["--json"] * (kind == "lens-json") + ["lens", entry.text])

    def is_failure(self, op, result):
        return False

    def work_units(self, op, result):
        return 1

    def check(self, op, result):
        kind, entry = op
        argv = (kind, entry.text)
        if kind == "key":
            return _check_key(argv, entry, result.orbifold_class.value, result.lens.p,
                              result.lens.q, result.iota)
        code, out = result
        if code != 0:
            return ["%r exited %d" % (argv, code)]
        try:
            if kind == "lens-json":
                payload = json.loads(out)
                return _check_lens(argv, entry, payload["lens"]["p"], payload["lens"]["q"])
            m = _LENS_LINE.match(out.rstrip("\n"))
            if not m:
                return ["%r printed %r" % (argv, out)]
            return _check_lens(argv, entry, int(m.group(1)), int(m.group(2)))
        except (ValueError, KeyError, TypeError) as exc:
            return ["%r: unreadable output %r (%s)" % (argv, out[:200], exc)]


WORKLOADS = {"atlas": Atlas, "queries": Queries, "lens": Lens}

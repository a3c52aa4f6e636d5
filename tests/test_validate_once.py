"""The public classify functions validate once and the atlas computes each
fibration class once."""

import contextlib
import io
import json
from collections import Counter

import pytest

from seifert_orbifolds import classify, cli
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
    row is not guarded again; an anti-Hopf row is guarded once."""
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


def test_atlas_signature_matches_diffeo_signature():
    rows = cli._atlas_rows(60)
    assert rows
    for row in rows:
        assert row["signature"] == diffeo_signature(parse_fibration(row["quotient"]))

"""The command line's bytes on a frozen corpus of argvs.

`golden/inputs.json` holds the inputs as data: the fibrations of a small
atlas, the malformed texts of `test_cli.py`, valid fibrations that are not
spherical, random edits of the texts, group specs and their edits, and
numbers too long for `int()` (its "about" entry says how each list was
made).  `argvs` builds the argvs from them in a
fixed order: every expression under each expression command, neighbouring
atlas fibrations under `diffeo`, every spec under `quotient` on both
sides, and every base under `chi`, each in text and `--json` mode.  They
are run in process, and each chunk of `CHUNK` argvs is hashed over (argv,
exit code, stdout, stderr).  `golden/hashes.json` holds the hashes.

Regenerate the hashes only in a change that alters output on purpose,
and say in CHANGES.md how many argvs changed and why:

    PYTHONPATH=src python tests/test_golden_corpus.py --write

prints the chunks whose hash changed.  On a mismatch the test prints each
changed chunk's argvs with their current output, to compare with the
parent commit's.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from seifert_orbifolds.cli import run_command

GOLDEN = Path(__file__).with_name("golden")
CHUNK = 100
EXPRESSION_COMMANDS = ("validate", "normalize", "classify", "fibrations", "lens")
SHOWN = 3  # changed chunks printed in full


def argvs(inputs: dict) -> list[list[str]]:
    fibrations = inputs["fibrations"]
    expressions = (fibrations + inputs["malformed"] + inputs["nonspherical"]
                   + inputs["mutations"] + inputs["long"])
    out = []

    def both(argv):
        out.extend((argv, ["--json"] + argv))

    for text in expressions:
        for command in EXPRESSION_COMMANDS:
            both([command, text])
    for left, right in zip(fibrations, fibrations[1:]):
        both(["diffeo", left, right])
    for spec in inputs["groups"] + inputs["group_mutations"]:
        both(["quotient", spec])
        both(["quotient", spec, "--anti-hopf"])
    bases = dict.fromkeys(text.split(";")[0].strip().lstrip("(") for text in expressions)
    for base in bases:
        if not base.startswith("-"):  # an option to argparse, not a base
            both(["chi", base])
    return out


def run(argv: list[str]) -> tuple:
    """(argv, exit code, stdout, stderr) of one in-process run; an
    exception that escapes `run_command` is recorded in place of stderr."""
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = run_command(argv)
        except Exception as exc:  # noqa: BLE001 - a traceback is a finding
            code = None
            print("uncaught %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
    return argv, code, out.getvalue(), err.getvalue()


def chunk_results(argv_list):
    """(hash, results) per chunk of CHUNK argvs."""
    for start in range(0, len(argv_list), CHUNK):
        results = [run(argv) for argv in argv_list[start:start + CHUNK]]
        digest = hashlib.sha256()
        for result in results:
            digest.update(json.dumps(result).encode() + b"\n")
        yield digest.hexdigest(), results


def load():
    with open(GOLDEN / "inputs.json", encoding="utf-8") as fh:
        inputs = json.load(fh)
    with open(GOLDEN / "hashes.json", encoding="utf-8") as fh:
        expected = json.load(fh)
    return argvs(inputs), expected


def _shown(index: int, results) -> str:
    lines = ["chunk %d:" % index]
    for argv, code, out, err in results:
        lines.append("  %r -> exit %r\n    stdout %r\n    stderr %r" % (argv, code, out, err))
    return "\n".join(lines)


def test_golden_corpus_bytes_are_unchanged():
    argv_list, expected = load()
    assert expected["chunk_size"] == CHUNK
    assert expected["argvs"] == len(argv_list), "the argv list changed"
    changed = []
    shown = []
    for index, (digest, results) in enumerate(chunk_results(argv_list)):
        if digest != expected["sha256"][index]:
            changed.append(index)
            if len(shown) < SHOWN:
                shown.append(_shown(index, results))
    assert not changed, "%d of %d chunks changed: %s\n%s" % (
        len(changed), len(expected["sha256"]), changed, "\n".join(shown))


def write() -> None:
    """Rewrite golden/hashes.json from the current code and print the
    chunks whose hash changed."""
    path = GOLDEN / "hashes.json"
    with open(GOLDEN / "inputs.json", encoding="utf-8") as fh:
        argv_list = argvs(json.load(fh))
    old = json.loads(path.read_text(encoding="utf-8"))["sha256"] if path.exists() else []
    hashes = [digest for digest, _ in chunk_results(argv_list)]
    changed = [i for i, h in enumerate(hashes) if i >= len(old) or old[i] != h]
    path.write_text(json.dumps({"chunk_size": CHUNK, "argvs": len(argv_list),
                                "sha256": hashes}, indent=1) + "\n", encoding="utf-8")
    print("%d argvs in %d chunks; changed chunks: %s" % (len(argv_list), len(hashes), changed))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_corpus.py --write")
    write()

"""Each command imports only the modules it uses, and the package's
public names resolve to their submodules' objects."""

import subprocess
import sys
from pathlib import Path

import pytest

import seifert_orbifolds

SRC = str(Path(__file__).resolve().parent.parent / "src")

# Run in a fresh interpreter: the modules loaded after the start, that is
# beyond those of a bare interpreter, whatever its site hooks load.
_PROBE = """
import sys
bare = set(sys.modules)
sys.path.insert(0, sys.argv[1])
from seifert_orbifolds.cli import run_command
code = run_command(sys.argv[2:])
print("--- exit %d" % code)
print("\\n".join(sorted(set(sys.modules) - bare)))
"""

_PACKAGE = ("seifert_orbifolds.groups", "seifert_orbifolds.lens", "seifert_orbifolds.classify")


def _loaded(*argv):
    proc = subprocess.run([sys.executable, "-c", _PROBE, SRC, *argv],
                          capture_output=True, text=True, timeout=60)
    _, _, modules = proc.stdout.partition("--- exit 0\n")
    assert proc.returncode == 0 and modules, (proc.stdout, proc.stderr)
    loaded = set(modules.split())
    assert {"seifert_orbifolds.core", "seifert_orbifolds.cli"} <= loaded
    return loaded


@pytest.mark.parametrize("argv", [["chi", "S2"], ["normalize", "S2(2,2); 1/2,1/2; ; -1"]])
def test_core_commands_load_core_and_cli_alone(argv):
    loaded = _loaded(*argv)
    assert not loaded & {*_PACKAGE, "argparse", "json"}


def test_lens_loads_classify_but_not_groups():
    loaded = _loaded("lens", "S2(4,4); 2/4,2/4; ; -1")
    assert {"seifert_orbifolds.classify", "seifert_orbifolds.lens"} <= loaded
    assert "seifert_orbifolds.groups" not in loaded


def test_quotient_loads_groups_but_not_classify():
    loaded = _loaded("quotient", "F2(m=3,n=2)")
    assert "seifert_orbifolds.groups" in loaded
    assert not loaded & {"seifert_orbifolds.classify", "seifert_orbifolds.lens"}


# The package's public names by the submodule that defines or re-exports them.
_PUBLIC = {
    "core": """FiberedOrbifold LocalInvariant Rational Surface TwoOrbifold
               UnsupportedFamilyError ValidationResult euler_characteristic is_bad
               is_spherical normalize orbifold_order reverse_orientation s3_fibration
               solve_xi validate""",
    "groups": """Family GroupFamily NO_INVARIANT_FIBRATION NoInvariantFibration
                 UnsupportedFamilyError group_order parse_group quotient_antihopf
                 quotient_hopf""",
    "lens": """ClassicalSeifert LensSpace Mode classical_from_fibration lens_equiv
               lens_from_classical""",
    "classify": """DiffeoKey FibrationClass FibrationCount InfiniteClassError OrbifoldClass
                   are_diffeomorphic diffeo_key diffeo_signature double_cover
                   enumerate_bridges enumerate_fibrations fibration_class fibration_count
                   single_step""",
}


def test_public_names_resolve_to_their_submodules():
    expected = set(_PUBLIC)
    for module, names in _PUBLIC.items():
        submodule = getattr(seifert_orbifolds, module)
        assert submodule is sys.modules["seifert_orbifolds." + module]
        for name in names.split():
            assert getattr(seifert_orbifolds, name) is getattr(submodule, name), name
            expected.add(name)
    assert seifert_orbifolds.__all__ == sorted(expected)
    assert len(expected) == 48
    assert set(expected) <= set(dir(seifert_orbifolds))
    with pytest.raises(AttributeError):
        seifert_orbifolds.no_such_name

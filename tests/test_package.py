"""The package root: `import persum` loads no submodule, and each public name
is its home module's own object, imported on first use."""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import persum

# each public name and the submodule that defines it
HOMES = {
    "CoefficientTable": "reconstruction",
    "ConstancyResult": "reconstruction",
    "IntPolynomial": "cyclotomic",
    "IntVector": "groups",
    "ModInt": "groups",
    "PeriodSystem": "spectrum",
    "PeriodicMap": "reconstruction",
    "ResidueClass": "covering",
    "ResidueSystem": "covering",
    "Spectrum": "spectrum",
    "SumOfPeriodicMaps": "reconstruction",
    "TableSizeError": "reconstruction",
    "WindowClassResult": "covering",
    "build_spectrum": "spectrum",
    "characteristic_poly": "cyclotomic",
    "coefficient_table": "reconstruction",
    "constancy_check": "reconstruction",
    "cyclotomic_poly": "cyclotomic",
    "divisors": "numth",
    "euler_phi": "numth",
    "extrapolate": "reconstruction",
    "finewilf_difference_gcd": "reconstruction",
    "fraction_str": "spectrum",
    "gcd_window": "covering",
    "lcm_all": "numth",
    "maximal_moduli_distinct": "covering",
    "multiplicity": "covering",
    "multiplicity_window": "covering",
    "odd_cover_check": "covering",
    "parse_fraction": "spectrum",
    "parse_residue_system": "covering",
    "recurrence_coeffs": "reconstruction",
    "scale": "groups",
    "size_by_inclusion_exclusion": "spectrum",
    "size_by_phi": "spectrum",
    "table_from_json_dict": "reconstruction",
    "table_to_json_dict": "reconstruction",
    "window_class_check": "covering",
    "zero_like": "groups",
}


def test_all_holds_the_39_public_names():
    assert len(HOMES) == 39
    assert persum.__all__ == sorted(HOMES)


@pytest.mark.parametrize("name", sorted(HOMES))
def test_each_public_name_is_its_home_modules_object(name):
    assert getattr(persum, name) is getattr(import_module(f"persum.{HOMES[name]}"), name)


def test_star_import_binds_all_and_dir_lists_it():
    namespace = {}
    exec("from persum import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(persum.__all__)
    assert set(persum.__all__) <= set(dir(persum))


def test_no_such_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        persum.no_such_name
    assert not hasattr(persum, "no_such_name")


def test_two_spectrum_names_load_only_numth_and_spectrum():
    env = dict(os.environ, PYTHONPATH=str(Path(persum.__file__).resolve().parents[1]))
    code = (
        "import sys\n"
        "from persum import PeriodSystem, build_spectrum\n"
        "print(sorted(m for m in sys.modules if m == 'persum' or m.startswith('persum.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['persum', 'persum.numth', 'persum.spectrum']"

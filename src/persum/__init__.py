"""persum: exact reconstruction of sums of periodic maps.

Any sum of maps from Z into an abelian group with fixed positive periods
is determined by its first few values; how many is the size of the
spectrum of reduced fractions attached to the periods. This package builds
that spectrum, the cyclotomic characteristic polynomial behind it, and the
universal integer coefficient table that extrapolates such sums to every
integer. On top of those it offers a strengthened two-period agreement
test and window checks for covering systems of residue classes.

All arithmetic is exact; no floating point anywhere.

`import persum` loads no submodule: each public name below imports its home
module on first use (PEP 562), so a caller pays only for what it reads.
"""

__version__ = "0.1.0"

# each public name, under the submodule that defines it
_HOMES = {
    "covering": (
        "ResidueClass", "ResidueSystem", "WindowClassResult", "gcd_window",
        "maximal_moduli_distinct", "multiplicity", "multiplicity_window",
        "odd_cover_check", "parse_residue_system", "window_class_check",
    ),
    "cyclotomic": ("IntPolynomial", "characteristic_poly", "cyclotomic_poly"),
    "groups": ("IntVector", "ModInt", "scale", "zero_like"),
    "numth": ("divisors", "euler_phi", "lcm_all"),
    "reconstruction": (
        "CoefficientTable", "ConstancyResult", "PeriodicMap", "SumOfPeriodicMaps",
        "TableSizeError", "coefficient_table", "constancy_check", "extrapolate",
        "finewilf_difference_gcd", "recurrence_coeffs", "table_from_json_dict",
        "table_to_json_dict",
    ),
    "spectrum": (
        "PeriodSystem", "Spectrum", "build_spectrum", "fraction_str", "parse_fraction",
        "size_by_inclusion_exclusion", "size_by_phi",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A public name, from its home module, kept here once it is read."""
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{home}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})

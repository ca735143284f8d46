"""persum: exact reconstruction of sums of periodic maps.

Any sum of maps from Z into an abelian group with fixed positive periods
is determined by its first few values; how many is the size of the
spectrum of reduced fractions attached to the periods. This package builds
that spectrum, the cyclotomic characteristic polynomial behind it, and the
universal integer coefficient table that extrapolates such sums to every
integer. On top of those it offers a strengthened two-period agreement
test and window checks for covering systems of residue classes.

All arithmetic is exact; no floating point anywhere.
"""

from .covering import (
    ResidueClass,
    ResidueSystem,
    WindowClassResult,
    gcd_window,
    maximal_moduli_distinct,
    multiplicity,
    multiplicity_window,
    odd_cover_check,
    parse_residue_system,
    window_class_check,
)
from .cyclotomic import (
    IntPolynomial,
    characteristic_poly,
    cyclotomic_poly,
    poly_powmod,
    x_power_minus_one,
)
from .groups import IntVector, ModInt, scale, zero_like
from .numth import divisors, euler_phi, lcm_all
from .reconstruction import (
    CoefficientTable,
    ConstancyResult,
    PeriodicMap,
    SumOfPeriodicMaps,
    TableSizeError,
    coefficient_table,
    constancy_check,
    extrapolate,
    finewilf_difference_gcd,
    recurrence_coeffs,
    table_from_json_dict,
    table_to_json_dict,
)
from .spectrum import (
    PeriodSystem,
    Spectrum,
    build_spectrum,
    fraction_str,
    parse_fraction,
    size_by_inclusion_exclusion,
    size_by_phi,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientTable",
    "ConstancyResult",
    "IntPolynomial",
    "IntVector",
    "ModInt",
    "PeriodSystem",
    "PeriodicMap",
    "ResidueClass",
    "ResidueSystem",
    "Spectrum",
    "SumOfPeriodicMaps",
    "TableSizeError",
    "WindowClassResult",
    "build_spectrum",
    "characteristic_poly",
    "coefficient_table",
    "constancy_check",
    "cyclotomic_poly",
    "divisors",
    "euler_phi",
    "extrapolate",
    "finewilf_difference_gcd",
    "fraction_str",
    "gcd_window",
    "lcm_all",
    "maximal_moduli_distinct",
    "multiplicity",
    "multiplicity_window",
    "odd_cover_check",
    "parse_fraction",
    "parse_residue_system",
    "poly_powmod",
    "recurrence_coeffs",
    "scale",
    "size_by_inclusion_exclusion",
    "size_by_phi",
    "table_from_json_dict",
    "table_to_json_dict",
    "window_class_check",
    "x_power_minus_one",
    "zero_like",
]

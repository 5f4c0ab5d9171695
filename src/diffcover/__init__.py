"""Cyclic difference covering arrays, the Latin squares they generate,
and deterministic backtracking search for small ingredients.

The public names resolve on first use (PEP 562), so importing the
package, or one of its modules such as ``diffcover.cli``, loads only the
modules that are used.
"""

from importlib import import_module as _import_module

_MODULES = {
    "core": (
        "BudgetExhausted",
        "CertificationFailed",
        "DesignError",
        "Form",
        "Kind",
        "NoMethod",
        "NoSolution",
        "NotNormalized",
        "OddOrderStrict",
        "ParseError",
        "ResidueArray",
        "diff_counts",
        "read_array",
        "to_full",
        "to_reduced",
        "write_array",
    ),
    "verify": (
        "Check",
        "VerificationReport",
        "verify_dca",
        "verify_dm",
        "verify_hdm",
    ),
    "construct": (
        "BadParams",
        "SpectrumEntry",
        "construct_4m",
        "construct_4m_general",
        "construct_6mu",
        "construct_by_method",
        "construct_from_table",
        "construct_odd",
        "dm_prime",
        "hdm_product",
        "insert_hole",
        "params_odd",
        "spectrum_report",
    ),
    "latin": (
        "Classification",
        "LatinSquare",
        "check_row_complete",
        "classify_pair",
        "latin_from_dca",
        "williams_order",
        "write_latin",
    ),
    "search": (
        "search_hdm",
        "search_third_column",
    ),
}

# Public name -> the module that defines it.
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

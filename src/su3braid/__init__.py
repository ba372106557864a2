"""Exact Temperley-Lieb recoupling at level 4, the four-anyon braid
representation it induces, and machine verification that the image group
is the order-162 SU(3) subgroup D(9,1,1;2,1,1).

Importing the package loads no submodule.  Each public name, and each
submodule as an attribute, is imported on first access (PEP 562), so a
caller pays only for the layers it uses: a recoupling query never loads
the group engine, the verifier or the command line."""

import importlib

# submodule -> the public names it defines
_PUBLIC = {
    "cyclo": ("Cyclo", "NonDivisibleOrderError", "root_of_unity", "sqrt2", "sqrt3"),
    "matrix": ("NotUnitaryError", "UnitaryMatrix"),
    "recoupling": (
        "InadmissibleTripleError", "TheoryParams", "VertexExponents", "ZeroDenominatorError",
        "admissible", "delta_n", "quantum_fact", "quantum_int", "r_value", "sixj", "tet",
        "theory", "theta",
    ),
    "braidrep": (
        "FusionBasis", "PhaseMismatchError", "fusion_basis",
        "paper_generators", "sigma_mid", "sigma_odd", "su3_normalize",
    ),
    "matgroup": ("FiniteMatrixGroup", "GroupTooLargeError", "close"),
    "su3families": ("CParams", "DParams", "c_generators", "d_generators"),
    "verify": ("VerificationReport", "run_theorem1_verification"),
    "cli": ("export_group", "query"),
}
_SOURCE = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _PUBLIC:
        return importlib.import_module(f"{__name__}.{name}")
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_PUBLIC})

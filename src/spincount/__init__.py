"""Exact-rational pseudo-Boolean function algebra, hardness classifiers, and
a perfect-matching estimator for nonnegative-Fourier binary counting.

Submodules and the names re-exported here load on first use (PEP 562): a
program that touches only ``spincount.funcs`` never compiles or runs the
other modules.  ``spincount.X`` is the same object as ``spincount.<module>.X``.
"""

from importlib import import_module as _import_module

# Each submodule and the public names it exports at the package level.
_EXPORTS = {
    "classify": (
        "RelTag",
        "RelTrichotomy",
        "TwoSpinTag",
        "TwoSpinVerdict",
        "UpDownTag",
        "UpDownVerdict",
        "classify_relations",
        "classify_two_spin",
        "classify_with_updown",
    ),
    "funcs": (
        "ARITY_CAP",
        "DELTA0",
        "DELTA1",
        "EQ",
        "EQ3",
        "IMP",
        "NEQ",
        "XOR3",
        "CapacityError",
        "PBFunction",
        "ProductForm",
        "PropertyReport",
        "SignedTable",
        "SupportRelation",
        "add_fictitious",
        "binary",
        "bit_flip",
        "fourier",
        "frac",
        "identify",
        "in_cp",
        "in_sdp3",
        "inverse_fourier",
        "irredundant",
        "is_lsm",
        "is_log_modular",
        "is_monotone",
        "is_pin_monotone",
        "is_product_type",
        "permute",
        "pin",
        "pin_monotone_violation",
        "product",
        "product_form",
        "property_report",
        "sum_out",
        "support",
        "unary",
    ),
    "gadgets": (
        "GadgetError",
        "NonLsmBinary",
        "PinningTag",
        "PinningVerdict",
        "PpsFormula",
        "UpDownPair",
        "approx_pin",
        "eval_pps",
        "extract_nonlsm_binary",
        "make_up_down",
        "normalize_unary",
        "parse_pps",
        "pinning_analysis",
        "serialize_pps",
        "symmetrize",
    ),
    "instances": (
        "CspInstance",
        "HolantConversion",
        "HolantInstance",
        "InstanceError",
        "holographic_transform",
        "near_assignment_total",
        "parse",
        "serialize",
        "to_holant",
        "z_exact",
        "z_product_type",
    ),
    "matching": (
        "Edge",
        "EstimateError",
        "EstimatorConfig",
        "FourierNormalForm",
        "WeightedMultigraph",
        "build_triangle_graph",
        "count_npm_exact",
        "count_pm_exact",
        "estimate_pm",
        "estimate_z_fpras",
        "holant_fourier_form",
        "integerize",
        "lift_instance",
        "sdp3_lift",
        "serialize_graph",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})

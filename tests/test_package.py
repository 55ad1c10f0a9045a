"""The package namespace: its names, and that each resolves to its submodule's object."""

from __future__ import annotations

import importlib

import pytest

import spincount

# `spincount.__all__` as it stood when the package imported every submodule eagerly.
PUBLIC = [
    "ARITY_CAP", "CapacityError", "CspInstance", "DELTA0", "DELTA1", "EQ", "EQ3", "Edge",
    "EstimateError", "EstimatorConfig", "FourierNormalForm", "GadgetError", "HolantConversion",
    "HolantInstance", "IMP", "InstanceError", "NEQ", "NonLsmBinary", "PBFunction", "PinningTag",
    "PinningVerdict", "PpsFormula", "ProductForm", "PropertyReport", "RelTag", "RelTrichotomy",
    "SignedTable", "SupportRelation", "TwoSpinTag", "TwoSpinVerdict", "UpDownPair", "UpDownTag",
    "UpDownVerdict", "WeightedMultigraph", "XOR3", "add_fictitious", "approx_pin", "binary",
    "bit_flip", "build_triangle_graph", "classify", "classify_relations", "classify_two_spin",
    "classify_with_updown", "count_npm_exact", "count_pm_exact", "estimate_pm", "estimate_z_fpras",
    "eval_pps", "extract_nonlsm_binary", "fourier", "frac", "funcs", "gadgets",
    "holant_fourier_form", "holographic_transform", "identify", "in_cp", "in_sdp3", "instances",
    "integerize", "inverse_fourier", "irredundant", "is_log_modular", "is_lsm", "is_monotone",
    "is_pin_monotone", "is_product_type", "lift_instance", "make_up_down", "matching",
    "near_assignment_total", "normalize_unary", "parse", "parse_pps", "permute", "pin",
    "pin_monotone_violation", "pinning_analysis", "product", "product_form", "property_report",
    "sdp3_lift", "serialize", "serialize_graph", "serialize_pps", "sum_out", "support",
    "symmetrize", "to_holant", "unary", "z_exact", "z_product_type",
]
MODULES = ["classify", "funcs", "gadgets", "instances", "matching"]


def test_public_names_are_frozen():
    assert spincount.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(spincount))


def test_each_name_is_its_submodules_object():
    """Every submodule that binds a public name binds the one object `spincount` gives."""
    subs = [importlib.import_module(f"spincount.{m}") for m in MODULES]
    assert [getattr(spincount, m) for m in MODULES] == subs
    for name in PUBLIC:
        if name not in MODULES:
            bound = [vars(sub)[name] for sub in subs if name in vars(sub)]
            assert bound and all(obj is getattr(spincount, name) for obj in bound), name


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from spincount import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)


def test_unknown_name_raises_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="module 'spincount' has no attribute 'no_such_name'"):
        spincount.no_such_name

"""Hyper-Catalan numbers, layered series zeros, subdigons and Raney words."""

from .core import (
    Composition,
    TypeVector,
    VEF,
    central_count,
    hyper_catalan,
    power_coeff,
    raney_count,
    unit_type,
    vef,
)
from .raney import list_blocks, lists_text
from .series import (
    LayeredPoly,
    LayerSpec,
    Measure,
    NonzeroRemainder,
    build_beta,
    enumerate_types,
    evaluate_geometric,
    geode_quotient,
    layer_slice,
    level,
    mul_truncated,
)
from .subdigon import subdigons_text

__all__ = [
    "Composition",
    "TypeVector",
    "VEF",
    "central_count",
    "hyper_catalan",
    "power_coeff",
    "raney_count",
    "unit_type",
    "vef",
    "LayeredPoly",
    "LayerSpec",
    "Measure",
    "NonzeroRemainder",
    "build_beta",
    "enumerate_types",
    "evaluate_geometric",
    "geode_quotient",
    "layer_slice",
    "level",
    "mul_truncated",
    "list_blocks",
    "lists_text",
    "subdigons_text",
]

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
]

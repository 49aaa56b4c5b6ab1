"""Hyper-Catalan numbers, layered series zeros, subdigons and Raney words.

Importing the package runs ``core`` alone.  ``catpow``, ``raney``, ``series`` and
``subdigon`` are registered in ``sys.modules`` as ``importlib.util.LazyLoader``
modules, and each runs on its first attribute access, so a CLI command runs only
the modules it uses.  They are registered, not imported on first use, so that
``import hypercatalan.series`` and anything that walks ``sys.modules`` (reading a
module's ``vars()`` runs it) find every module of the package.  The names of
``__all__`` come through the module ``__getattr__`` (PEP 562) from their home
modules.  On Python 3.10 and 3.11 LazyLoader takes no lock: two threads that touch
a module first at once can both run it, or one can read it half run, so a threaded
caller touches each module it needs before its threads start.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

from . import core


def _lazy(name: str):
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = sys.modules[spec.name] = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


catpow, raney, series, subdigon = map(_lazy, ("catpow", "raney", "series", "subdigon"))

_HOME = {name: module for module, names in (
    (core, ("Composition", "TypeVector", "VEF", "Measure", "central_count", "hyper_catalan",
            "power_coeff", "raney_count", "unit_type", "vef")),
    (series, ("LayeredPoly", "LayerSpec", "NonzeroRemainder", "build_beta", "enumerate_types",
              "evaluate_geometric", "geode_quotient", "layer_slice", "level", "mul_truncated")),
    (raney, ("list_blocks", "lists_text")),
    (subdigon, ("subdigons_text",)),
) for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_HOME[name], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

"""The package's lazy submodules: which modules a command runs, and the names it serves."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypercatalan

SRC = Path(hypercatalan.__file__).parents[1]

# each name of __all__ by the module that defines it
HOMES = {
    "core": ("Composition", "TypeVector", "VEF", "Measure", "central_count", "hyper_catalan",
             "power_coeff", "raney_count", "unit_type", "vef"),
    "series": ("LayeredPoly", "LayerSpec", "NonzeroRemainder", "build_beta", "enumerate_types",
               "evaluate_geometric", "geode_quotient", "layer_slice", "level", "mul_truncated"),
    "raney": ("list_blocks", "lists_text"),
    "subdigon": ("subdigons_text",),
}

# A module's code has run once its namespace holds __builtins__; object.__getattribute__
# reads the namespace without running a module that has not run.
_RUN = """
import contextlib, io, json, sys
from hypercatalan import cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(sys.argv[1:]) != 0:
            sys.exit("the command failed")
print(json.dumps(sorted(
    name[len("hypercatalan."):] for name, module in sys.modules.items()
    if name.startswith("hypercatalan.")
    and "__builtins__" in object.__getattribute__(module, "__dict__"))))
"""


def _modules_run(argv: list[str]) -> list[str]:
    """The submodules of the package a fresh interpreter has run after cli.main(argv)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-c", _RUN, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("argv,added", [
    ([], []),
    (["coeff", "--type", "2,1", "--central", "--power", "3"], []),
    (["raney", "check", "2100"], ["raney"]),
    (["subdigons", "--type", "2,1", "--format", "list"], ["raney", "subdigon"]),
    (["verify", "--measure", "vertex", "--d", "5"], ["catpow", "series"]),
    (["table", "--measure", "face", "--d", "3", "--q", "3", "--format", "json"], ["catpow", "series"]),
    (["solve", "--coeffs", "1/7,1/30", "--d", "8"], ["catpow", "series"]),
], ids=["import", "coeff", "raney-check", "subdigons", "verify", "table", "solve"])
def test_a_command_runs_only_the_modules_it_uses(argv, added):
    assert _modules_run(argv) == sorted(["cli", "core", *added])


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from hypercatalan import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(hypercatalan.__all__)


def test_each_name_is_its_home_modules_object():
    assert sorted(hypercatalan.__all__) == sorted(n for names in HOMES.values() for n in names)
    for home, names in HOMES.items():
        module = importlib.import_module(f"hypercatalan.{home}")
        for name in names:
            assert getattr(hypercatalan, name) is vars(module)[name], name


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'hypercatalan' has no attribute 'no_such_name'"):
        hypercatalan.no_such_name  # noqa: B018


def test_dir_lists_all_and_the_submodules():
    assert set(hypercatalan.__all__) | {"core", "catpow", "raney", "series", "subdigon"} <= set(
        dir(hypercatalan))


@pytest.mark.parametrize("name", ["catpow", "raney", "series", "subdigon"])
def test_import_module_returns_the_registered_module(name):
    module = importlib.import_module(f"hypercatalan.{name}")
    assert module is sys.modules[f"hypercatalan.{name}"] is getattr(hypercatalan, name)
    assert module.__name__ == f"hypercatalan.{name}"

"""The benchmark's traced run wraps ``repro`` entry points by name.

``perfbench/layers.py`` lists, in ``ENTRY_POINTS``, the module-level
functions and class attributes it wraps in spans for
``perfbench/run.py --trace 1``.  A refactor that renames or moves one of
them breaks the traced run without failing any other test, so this test
resolves every entry of that list against the current source tree.
"""

from __future__ import annotations

import importlib
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _entry_points():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", ROOT / "perfbench" / "layers.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRY_POINTS


ENTRY_POINTS = _entry_points()


def test_entry_point_list_is_not_empty():
    assert len(ENTRY_POINTS) > 0


@pytest.mark.parametrize(
    "module_name,path",
    [(module_name, path) for module_name, path, _, _ in ENTRY_POINTS],
    ids=[f"{module_name}:{path}" for module_name, path, _, _ in ENTRY_POINTS],
)
def test_entry_point_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    if "." in path:
        # A method is replaced on its class, read from the class
        # ``__dict__``: an inherited or instance attribute is not enough.
        cls_name, attr = path.split(".")
        cls = getattr(owner, cls_name)
        assert isinstance(cls, type), f"{module_name}.{cls_name} is not a class"
        assert attr in cls.__dict__, f"{attr} is not defined on {cls_name} itself"
    else:
        assert callable(getattr(owner, path))

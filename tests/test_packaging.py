import importlib
import inspect
import os

import pytest

from tvk import autodiff

tomllib = pytest.importorskip("tomllib")

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "pyproject.toml")


def declared_entry_points():
    with open(PYPROJECT, "rb") as f:
        project = tomllib.load(f)["project"]
    groups = {"scripts": project.get("scripts", {}),
              "gui-scripts": project.get("gui-scripts", {}),
              **project.get("entry-points", {})}
    return [(f"{group}.{name}", target) for group, entries in groups.items()
            for name, target in entries.items()]


def test_every_entry_point_resolves_to_a_callable():
    for name, target in declared_entry_points():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module.strip())
        for part in filter(None, attr.strip().split(".")):
            obj = getattr(obj, part)
        assert callable(obj), name


def test_autodiff_all_resolves_and_lists_every_public_function():
    for name in autodiff.__all__:
        assert hasattr(autodiff, name), name
    public = {name for name, obj in vars(autodiff).items()
              if (inspect.isfunction(obj) or inspect.isclass(obj))
              and not name.startswith("_")
              and obj.__module__ == autodiff.__name__}
    assert {"Tensor", "ParameterStore", "Adam", "no_grad"} <= public
    unlisted = sorted(public - set(autodiff.__all__))
    assert not unlisted, unlisted

"""The public names: what each module lists in `__all__` it defines, and the
package root re-exports only listed names."""

import importlib
import inspect
import pkgutil

import pytest

import slopeflow

SUBMODULES = [importlib.import_module(f"slopeflow.{m.name}") for m in pkgutil.iter_modules(slopeflow.__path__)]


@pytest.mark.parametrize("mod", SUBMODULES, ids=lambda mod: mod.__name__)
def test_every_listed_name_exists_in_the_module_that_defines_it(mod):
    """A stale `__all__` entry would break `from ... import *` and any tool
    that looks every listed name up; a listed function or class is the
    module's own."""
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"{mod.__name__}.__all__ lists a missing {name!r}"
        obj = getattr(mod, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == mod.__name__, f"{mod.__name__}.__all__ lists {name!r} of {obj.__module__}"


def test_the_package_root_reexports_listed_names():
    """Each public name of `slopeflow`, the lazily loaded one included, is
    the object of that name in some module's `__all__`."""
    public = [name for name, obj in vars(slopeflow).items() if not name.startswith("_") and not inspect.ismodule(obj)]
    public.append("minimizing_sequence")
    listed = {name: getattr(mod, name) for mod in SUBMODULES for name in getattr(mod, "__all__", ())}
    for name in public:
        assert name in listed and getattr(slopeflow, name) is listed[name], name

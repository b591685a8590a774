"""The package's public names, resolved from their modules on first use."""

import importlib

import pytest

import subuniform


def test_every_public_name_resolves_to_its_module_object():
    assert len(subuniform.__all__) == len(set(subuniform.__all__)) == 53
    for name in subuniform.__all__:
        value = getattr(subuniform, name)
        if name != "__version__":
            module = importlib.import_module(f"subuniform.{subuniform._MODULE_OF[name]}")
            assert value is getattr(module, name), name
            assert name in module.__all__, name


def test_each_module_exports_exactly_the_names_the_package_maps_to_it():
    # one list per module would otherwise drift from the package's map
    for module in set(subuniform._MODULE_OF.values()):
        names = sorted(name for name, home in subuniform._MODULE_OF.items() if home == module)
        assert sorted(importlib.import_module(f"subuniform.{module}").__all__) == names, module


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from subuniform import *", namespace)
    assert set(subuniform.__all__) <= namespace.keys()
    assert set(subuniform.__all__) <= set(dir(subuniform))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        subuniform.no_such_name
    assert not hasattr(subuniform, "chi2")
    with pytest.raises(ImportError):
        exec("from subuniform import no_such_name", {})

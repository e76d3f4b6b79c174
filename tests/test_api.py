"""The public surface holds together: every exported name resolves."""

import importlib
import pkgutil

import pytest

import sidonlab
from sidonlab import randommodel, sidoncore
from sidonlab.numbertheory import RangeError


def test_every_exported_name_resolves():
    modules = [info.name for info in pkgutil.iter_modules(sidonlab.__path__)
               if not info.name.startswith("_")]
    assert "sidoncore" in modules and "deletionlab" in modules
    missing = []
    for name in modules:
        module = importlib.import_module(f"sidonlab.{name}")
        missing += [f"sidonlab.{name}.{attr}" for attr in module.__all__
                    if not hasattr(module, attr)]
    missing += [f"sidonlab.{attr}" for attr in sidonlab.__all__
                if not hasattr(sidonlab, attr)]
    assert not missing


@pytest.mark.parametrize("call", [
    lambda: randommodel.mix64(5.0),
    lambda: randommodel.uniform_unit(5, 3.0),
    lambda: randommodel.uniform_unit(5.0, 3),
    # the modulus used to be compared with 1 before it was read
    lambda: sidoncore.is_sidon([1, 2], mode="cyclic", modulus="7"),
    lambda: sidoncore.ModSet.from_text("mod x\n1\n"),
    lambda: sidoncore.ModSet.from_text("mod 7\n1.5\n"),
], ids=["mix64", "uniform_unit_x", "uniform_unit_seed", "cyclic_modulus",
        "modset_modulus_text", "modset_element_text"])
def test_bad_caller_values_raise_range_error(call):
    # each used to end in a TypeError or a bare ValueError from int()
    with pytest.raises(RangeError):
        call()

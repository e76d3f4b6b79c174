"""The public surface holds together: every exported name resolves."""

import importlib
import pkgutil

import sidonlab


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

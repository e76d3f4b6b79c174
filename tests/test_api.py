"""The public surface holds together: every exported name resolves."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import sidonlab
from sidonlab import cli, sidoncore
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


LIBRARY = ("numbertheory", "sidoncore", "curveoracle", "decomposer",
           "randommodel", "deletionlab", "sunflower", "analysis")


def test_package_list_is_the_modules_lists():
    want = [name for module in LIBRARY
            for name in importlib.import_module(f"sidonlab.{module}").__all__]
    assert sidonlab.__all__ == want + ["__version__"]
    assert len(set(sidonlab.__all__)) == len(sidonlab.__all__)


def test_import_loads_no_cli():
    src = str(Path(sidonlab.__file__).resolve().parent.parent)
    code = ("import sys, sidonlab\n"
            "assert 'sidonlab.cli' not in sys.modules\n"
            "assert 'argparse' not in sys.modules\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("call", [
    # the modulus used to be compared with 1 before it was read
    lambda: sidoncore.is_sidon([1, 2], mode="cyclic", modulus="7"),
], ids=["cyclic_modulus"])
def test_bad_caller_values_raise_range_error(call):
    # each used to end in a TypeError or a bare ValueError from int()
    with pytest.raises(RangeError):
        call()


SERIALIZERS = {"to_json", "from_json", "to_text", "from_text", "to_csv",
               "to_json_lines", "save", "load"}


def test_library_classes_define_no_serializers():
    # payloads are written and read by the CLI's envelope alone
    found = [f"{module}.{name}.{attr}" for module in LIBRARY
             for name, value in vars(
                 importlib.import_module(f"sidonlab.{module}")).items()
             if isinstance(value, type)
             and value.__module__ == f"sidonlab.{module}"
             for attr in sorted(SERIALIZERS & vars(value).keys())]
    assert not found


DOMAIN_ERRORS = {"NotPrime", "NotGenerator", "PrimeNotFound", "RangeError",
                 "NoRepresentation", "NonConvergent"}


def test_one_exception_class_per_fault():
    # each fault has one class, and the CLI reports exactly those as domain
    # errors; any other exception is a bug and propagates
    defined = {name for module in LIBRARY
               for name, value in vars(
                   importlib.import_module(f"sidonlab.{module}")).items()
               if isinstance(value, type) and issubclass(value, Exception)
               and value.__module__ == f"sidonlab.{module}"}
    assert defined == DOMAIN_ERRORS
    names = [error.__name__ for error in cli._DOMAIN_ERRORS]
    assert len(names) == len(set(names)) and set(names) == DOMAIN_ERRORS

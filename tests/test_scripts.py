"""scripts/refresh_pins.py must neither measure nor write on --help or on
an unknown flag, and every demo must run cleanly."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "refresh_pins.py"
PINS = ROOT / "src" / "sidonlab" / "pins.json"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_refresh_pins_help_and_unknown_flag_leave_pins_alone():
    before = PINS.read_bytes(), PINS.stat().st_mtime_ns
    for flag, code in (("--help", 0), ("--no-such-flag", 2)):
        done = subprocess.run([sys.executable, str(SCRIPT), flag],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == code, done.stderr
        assert "wrote" not in done.stdout
        assert (PINS.read_bytes(), PINS.stat().st_mtime_ns) == before


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, timeout=120, env=env, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""

"""scripts/refresh_pins.py must neither measure nor write on --help or on
an unknown flag."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "refresh_pins.py"
PINS = ROOT / "src" / "sidonlab" / "pins.json"


def test_refresh_pins_help_and_unknown_flag_leave_pins_alone():
    before = PINS.read_bytes(), PINS.stat().st_mtime_ns
    for flag, code in (("--help", 0), ("--no-such-flag", 2)):
        done = subprocess.run([sys.executable, str(SCRIPT), flag],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == code, done.stderr
        assert "wrote" not in done.stdout
        assert (PINS.read_bytes(), PINS.stat().st_mtime_ns) == before

"""
Explicit 3-term decompositions with replayable certificates
===========================================================

Every decomposer returns a Decomposition whose replay() re-verifies
membership and the target sum from scratch. Nothing is trusted; the
certificate is the computation.
"""

import json
import tempfile
from pathlib import Path

from sidonlab import (Decomposition, NoRepresentation, decompose3_ruzsa,
                      decompose3_zn, decompose4_ruzsa, lift_to_interval)
from sidonlab.cli import run

# Inside the discrete-log group: decompose the target (a, b) = (5, 9)
# over Z_{(p-1)p} with p = 31 into three distinct set elements.
p = 31
d = decompose3_ruzsa(p, 5, 9, require_distinct=True)
print(f"target (5, 9) over p = {p}:")
print(f"  parts   {d.parts}")
print(f"  replay  {d.replay()}")

# Four-term version, used when a target resists distinct triples at
# small p.
d4 = decompose4_ruzsa(p, 5, 9)
print(f"  4-term  {d4.parts}, replay {d4.replay()}")

# Over a plain cyclic group the quadratic set takes over. N = 700 pairs
# with the decomposition prime p = 13 via the lift n -> (r1, r2).
n, N = 32, 700
target = lift_to_interval(n, N)
print(f"\nlift of n = {n} mod {N}: {target}")

d = decompose3_zn(n, N)
print(f"  exhaustive parts {d.parts}, replay {d.replay()}")

# The box search is stricter: it only accepts triples whose quadric
# solution lands in a narrow dyadic box, so it clears far fewer targets
# (6 of 700 at this modulus, against 298 for the exhaustive search).
for n in (16, 32, 123):
    row = []
    for mode in ("exhaustive", "box"):
        try:
            d = decompose3_zn(n, N, mode=mode)
            row.append(f"{mode}: {d.parts}")
        except NoRepresentation:
            row.append(f"{mode}: none")
    print(f"  n = {n:3d}  " + "   ".join(row))

# Certificates travel as the command line's JSON envelope: the payload
# that `decompose zn --out` writes rebuilds the Decomposition, whose
# replay re-checks it wherever the file is read.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "certificate.json"
    run(["decompose", "zn", "-N", str(N), "-n", "32", "--out", str(path)])
    payload = json.loads(path.read_text())["payload"]
print("\ncertificate for n = 32:", json.dumps(payload, indent=2, sort_keys=True))
print(f"  rebuilt from the file, replay {Decomposition(**payload).replay()}")

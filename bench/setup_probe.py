"""Set-up probe: a fresh process imports sweepctrl and parses one workload's inputs.

Reads {"texts": [scenario text, ...], "polyhedra": [[A, c], ...]} on standard
input.  The benchmark times the whole process from outside, so the figure is
what a command-line user pays before any work starts.
"""

import json
import sys
from pathlib import Path

payload = json.load(sys.stdin)

import numpy as np  # noqa: E402

import sweepctrl  # noqa: E402
from sweepctrl import models, polyhedra  # noqa: E402

root = Path(__file__).resolve().parents[1]
if Path(sweepctrl.__file__).resolve().parent != root / "src" / "sweepctrl":
    sys.exit(f"imported sweepctrl from {sweepctrl.__file__}, not from this checkout")
for text in payload["texts"]:
    models.parse_scenario_text(text)
for A, c in payload["polyhedra"]:
    polyhedra.Polyhedron(np.array(A), np.array(c))

"""The tolerance table is the only source file that spells a tolerance."""

import re
from pathlib import Path

import sweepctrl

PACKAGE = Path(sweepctrl.__file__).parent
TOLERANCE = re.compile(r"\d[eE]-\d")


def test_tolerance_literals_live_only_in_the_table():
    found = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "tolerances.py"
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if TOLERANCE.search(line)
    ]
    assert not found, "tolerance literals outside tolerances.py:\n" + "\n".join(found)


def test_the_table_is_a_leaf_module():
    text = (PACKAGE / "tolerances.py").read_text()
    assert not re.search(r"^\s*(import|from)\s", text, re.MULTILINE)


def test_only_models_reads_the_contact_tolerance():
    # Every contact decision goes through `models.in_contact`, so no other module names CONTACT_TOL.
    found = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in ("tolerances.py", "models.py")
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if re.search(r"\bCONTACT_TOL\b", line)
    ]
    assert not found, "CONTACT_TOL outside tolerances.py and models.py:\n" + "\n".join(found)

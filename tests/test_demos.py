"""The demos as a golden test: each runs to exit 0 and prints the same bytes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout, recorded before the twist derivation was
# rewritten to derive its data once
GOLDEN = {
    "01_exact_scalars_and_matrices.py":
        "17fe06d6cd097c7ea1a9037385f3219f29e2a13eaaaf3287e0c1b88e7a09a949",
    "02_quasideterminants.py":
        "9799f53d8a01bad90ef1187f12327f5a459524820317e3f3665ea34729b8b61d",
    "03_twisted_braidings.py":
        "b60b63d799e757f273a7e16e9185f9a8f4277cc74ce68fdbbbe79a449cf75e80",
    "04_determinant_factorization.py":
        "fda5df0db7e3e2d54a1eab13daa540939e3088c20226ec04427760e168f66d92",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_demo_output_is_golden(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN[name]

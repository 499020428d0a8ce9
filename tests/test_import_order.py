"""The kernel's modules import cleanly on their own.

``repro.core.hunter`` imports ``repro.serve.core`` (the one City-Hunter
kernel), and ``repro.serve`` in turn pulls in the service stack.  Each
entry point below must import in a fresh interpreter, whatever module
a caller happens to import first.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize(
    "module", ["repro.serve.core", "repro.core.hunter", "repro.attacks.stealth"]
)
def test_imports_in_fresh_interpreter(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", "import %s" % module],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr

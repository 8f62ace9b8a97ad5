"""Each module reaches every name it uses through its own imports, and the
package root binds none of its own: a name has one binding, the one in the
module that defines it, which is the one a monkeypatch replaces."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import scpsim

SRC = Path(scpsim.__file__).resolve().parents[1]
MODULES = ("cli", "colorspace", "cycle_model", "fabric", "fixed_point", "histeq", "image_io")


def _fresh(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first_and_alone(module):
    _fresh(f"import scpsim.{module}")


def test_package_root_binds_no_public_name():
    assert _fresh("import scpsim; print(sorted(n for n in vars(scpsim) if not n.startswith('_')))") == "[]\n"

"""The import graph: what `import conelab` loads, and which modules the Fourier side reaches."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import conelab

PACKAGE = Path(conelab.__file__).parent


def test_import_leaves_scipy_spatial_out():
    code = "import sys, conelab; print('scipy.spatial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=PACKAGE.parent)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("module", ("fourier.py", "operators.py"))
def test_fourier_side_skips_the_circle_geometry(module):
    tree = ast.parse((PACKAGE / module).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
    assert not imported & {"tangency", "rectangles", "geometry"}

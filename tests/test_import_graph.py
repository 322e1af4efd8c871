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


def test_import_leaves_scipy_special_out():
    # J0 is the library's own port; scipy.special costs more to import than any kernel
    code = "import sys, conelab, conelab.cli; print('scipy.special' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=PACKAGE.parent)
    assert out.stdout.strip() == "False"


SWEEP_POINTS = """
import sys
from conelab import experiments as ex
before = set(sys.modules)
ex._decay_point(("light_tube", 16, 0, None, 2.0))
ex._duality_point(("light_tube", 16, 0, None, 2.0))
ex._maximal_point(("wolff_radii", 2.0 ** -5, 0, None, None))
ex._pairs_point(("wolff_radii", 2.0 ** -5, 0, None, None))
ex._sharpness_point(("sqrt", 16, 4, 2.0))
print(sorted(set(sys.modules) - before))
"""


def test_sweep_points_import_nothing():
    # a module numpy loads lazily on first use would land in a sweep point's wall time
    out = subprocess.run([sys.executable, "-c", SWEEP_POINTS], capture_output=True, text=True,
                         check=True, cwd=PACKAGE.parent)
    assert out.stdout.strip() == "[]"


def _imported(module: str) -> set:
    """Module and imported names of every import statement in the package file."""
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / module).read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    return imported


@pytest.mark.parametrize("module", ("fourier.py", "operators.py"))
def test_fourier_side_skips_the_circle_geometry(module):
    names = {name.split(".")[-1] for name in _imported(module)}
    assert not names & {"tangency", "rectangles", "geometry"}


def test_geometry_imports_nothing_from_the_package():
    # measures imports geometry's lightlike frame, so geometry must stay a leaf
    imported = _imported("geometry.py")
    assert not {name for name in imported
                if name.startswith(".") or name.split(".")[0] == "conelab"}
    assert "lightlike_frame" in _imported("measures.py")


def _read_names() -> set:
    """Every name loaded, bare or as an attribute, anywhere in the package."""
    read = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def test_every_module_constant_is_read():
    # an upper-case module-level name that nothing in the package reads is dead
    assigned = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                assigned.update(name.id for name in ast.walk(target)
                                if isinstance(name, ast.Name) and name.id.isupper())
    assert sorted(assigned - _read_names()) == []


# defined in the package but loaded only from outside it: perfbench's checks
# read comparable, and the criterion-6 lemma code, read by its tests alone,
# is to move beside criterion 6 (ROADMAP item 15)
UNREAD_DEFINITIONS = {"comparable", "membership_dilation", "tangency_plank", "dual_rectangle",
                      "rect_contains", "rect_sample_points", "intersect_angle",
                      "exact_annuli_area"}


def test_every_function_and_class_is_used():
    # a module-level def or class that the package neither loads nor exports is dead
    defined = set()
    for path in PACKAGE.glob("*.py"):
        defined.update(node.name for node in ast.parse(path.read_text()).body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
    unread = defined - _read_names() - _imported("__init__.py")
    assert sorted(unread) == sorted(UNREAD_DEFINITIONS)

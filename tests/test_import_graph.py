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
    # J0 is the library's own port; scipy.special costs more to import than any kernel,
    # and the manifest names no scipy version, so no scipy module loads at all
    code = ("import sys, conelab, conelab.cli; print('scipy.special' in sys.modules, "
            "any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=PACKAGE.parent)
    assert out.stdout.strip() == "False False"


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


def test_numpy_ma_stays_unloaded():
    # the plain form of np.unique imports numpy.ma to test for a masked array;
    # the package calls the forms that skip that test, so neither the import
    # nor a sweep point loads it
    code = ("import sys, conelab, conelab.cli; print('numpy.ma' in sys.modules)\n"
            + SWEEP_POINTS.replace("print(sorted(set(sys.modules) - before))",
                                   "print('numpy.ma' in sys.modules)"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=PACKAGE.parent)
    assert out.stdout.split() == ["False", "False"]


def test_numpy_fft_stays_unloaded():
    # the radial table is a direct sum, so nothing in the package transforms;
    # numpy loads numpy.fft lazily, and neither the import nor a sweep point should
    code = ("import sys, conelab, conelab.cli; print('numpy.fft' in sys.modules)\n"
            + SWEEP_POINTS.replace("print(sorted(set(sys.modules) - before))",
                                   "print('numpy.fft' in sys.modules)"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=PACKAGE.parent)
    assert out.stdout.split() == ["False", "False"]


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


def _read_names(attributes_only: bool = False) -> set:
    """Every name loaded as an attribute, or also bare, anywhere in the package."""
    read = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and not attributes_only:
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def _top_level():
    """Every module-level statement in the package."""
    for path in PACKAGE.glob("*.py"):
        yield from ast.parse(path.read_text()).body


def test_every_module_constant_is_read():
    # an upper-case module-level name that nothing in the package reads is dead
    assigned = set()
    for node in _top_level():
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            assigned.update(name.id for name in ast.walk(target)
                            if isinstance(name, ast.Name) and name.id.isupper())
    assert sorted(assigned - _read_names()) == []


# defined in the package but loaded only from outside it, each with a file that
# calls it: perfbench's checks and workloads, the tests of rescale_to_Q (a
# pipeline reader is planned) and of the public file API
UNREAD_DEFINITIONS = {
    "comparable": "perfbench/checks.py",
    "multiplicity_field": "perfbench/checks.py",
    "main_geom_check": "perfbench/workloads.py",
    "rescale_to_Q": "tests/test_tangency.py",
    "load_measure": "tests/test_cli.py",
    "load_config": "tests/test_cli.py",
}


def test_every_function_and_class_is_used():
    # a module-level def or class that the package never loads is dead, exported
    # or not, unless it is listed above with the outside file that calls it
    defined = {node.name for node in _top_level()
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert sorted(defined - _read_names()) == sorted(UNREAD_DEFINITIONS)
    root = Path(__file__).resolve().parents[1]
    for name, reader in UNREAD_DEFINITIONS.items():
        assert f"{name}(" in (root / reader).read_text(), (name, reader)


# methods and properties loaded only from outside the package: perfbench reads
# matrix (checks.py:161, spans.py:84) and node_count (spans.py:71)
UNREAD_METHODS = {"matrix", "node_count"}


def test_every_method_and_property_is_used():
    # a method or property, dunders aside, that the package never loads as an attribute
    # is dead; a local variable of the same name does not count as a read
    defined = {node.name for cls in _top_level() if isinstance(cls, ast.ClassDef)
               for node in cls.body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")}
    assert sorted(defined - _read_names(attributes_only=True)) == sorted(UNREAD_METHODS)

"""The runtime stays stdlib-only: every import in the package is relative
or a standard-library module, and the project declares no dependencies.
The package's syntax stays within its declared Python floor."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "letterbraid"


def _imported_modules(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = [
        (path.name, name)
        for path in sources
        for name in _imported_modules(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


def test_project_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)


def test_package_parses_at_the_declared_python_floor():
    """ast.parse with feature_version refuses syntax newer than the floor,
    such as except* below 3.11, so a newer interpreter checks the floor
    too.  It checks syntax only, not the standard library's API."""
    text = (ROOT / "pyproject.toml").read_text()
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.MULTILINE)
    assert floor
    version = (int(floor.group(1)), int(floor.group(2)))
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=version)


def test_every_exported_name_is_bound():
    import letterbraid

    assert len(set(letterbraid.__all__)) == len(letterbraid.__all__)
    assert [name for name in letterbraid.__all__ if not hasattr(letterbraid, name)] == []


def test_every_public_name_is_exported():
    import types

    import letterbraid

    public = {
        name
        for name, value in vars(letterbraid).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(letterbraid.__all__)) == []


def test_test_side_linear_algebra_is_not_exported():
    """solve and in_column_span, which no engine code calls, live in
    tests/linalg_reference.py, not in the package."""
    import letterbraid
    from letterbraid import rings

    for name in ("solve", "in_column_span"):
        assert not hasattr(rings, name)
        assert name not in letterbraid.__all__

"""physgrd's runtime dependencies are numpy and the standard library.

scipy, hypothesis and pytest may be installed beside it, but only tests
and benchmarks may import them. Each module of the package is parsed, not
imported, so an import behind a branch is checked too.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "physgrd"


def absolute_imports(path):
    """The module names a source file imports absolutely."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_numpy_and_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    foreign = [
        (path.name, name) for path in modules for name in absolute_imports(path)
        if name.partition(".")[0] not in {"numpy", *sys.stdlib_module_names}
    ]
    assert foreign == []


def test_only_motion_data_imports_json():
    """JSON artifacts are read and written by motion_data's _read_json and
    _write_json, so one module owns their format."""
    importers = [path.stem for path in sorted(PACKAGE.glob("*.py"))
                 if "json" in absolute_imports(path)]
    assert importers == ["motion_data"]

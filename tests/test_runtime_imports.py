"""physgrd's runtime dependencies are numpy and the standard library, its
range rule takes one number, its records keep the numbers they check, and
the simulation mode names are written once.

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


def test_check_range_is_given_one_number():
    """errors.check_range takes one number, so no call passes it a tuple,
    list or generator of them: each number is checked on its own, and a
    vector takes its shape from the array rule, motion_data._numeric."""
    values = {
        (path.name, node.lineno): _value(node) for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("check_range")
    }
    assert len(values) > 10  # the calls were found
    assert [at for at, value in values.items() if isinstance(
        value, (ast.Tuple, ast.List, ast.GeneratorExp, ast.ListComp))] == []


def test_records_keep_the_numbers_they_check():
    """A dataclass's __post_init__ stores what check_range returns for each of
    its own fields (self.<field> or getattr(self, name)), so a record holds
    the float the package computes with, whatever real number it was given.
    A check of a derived value, such as GravitySpec's magnitude, is no field's."""
    found, dropped = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(cls, ast.ClassDef)
                    and any("dataclass" in ast.unparse(d) for d in cls.decorator_list)):
                continue
            fields = {node.target.id for node in cls.body if isinstance(node, ast.AnnAssign)}
            for init in cls.body:
                if not (isinstance(init, ast.FunctionDef) and init.name == "__post_init__"):
                    continue
                for node in ast.walk(init):
                    if _checks_a_field(node, fields):
                        found.add(cls.name)
                    if isinstance(node, ast.Expr) and _checks_a_field(node.value, fields):
                        dropped.append(f"{path.name}:{node.lineno} {cls.name}")
    assert {"MotionClip", "PDGains", "SimResult", "TrainConfig"} <= found
    assert dropped == []


def test_mode_names_are_written_once():
    """The simulation modes are written once, as dynamics.SimMode's Literal; a
    tuple, list or set that spells both names out is a second copy that could
    drift from it, so every list of the modes reads them through
    typing.get_args(SimMode)."""
    subscripts, copies = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        slices = {id(node.slice) for node in ast.walk(tree) if isinstance(node, ast.Subscript)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Tuple, ast.List, ast.Set)) and {"closed_loop", "open_loop"} <= {
                    elt.value for elt in node.elts if isinstance(elt, ast.Constant)}:
                (subscripts if id(node) in slices else copies).append(f"{path.name}:{node.lineno}")
    assert len(subscripts) == 1  # SimMode = Literal["closed_loop", "open_loop"]
    assert copies == []


def _checks_a_field(node, fields):
    """Whether node is a check_range call whose value is a field of self."""
    if not (isinstance(node, ast.Call) and ast.unparse(node.func).endswith("check_range")):
        return False
    value = _value(node)
    if isinstance(value, ast.Attribute):
        return ast.unparse(value.value) == "self" and value.attr in fields
    return isinstance(value, ast.Call) and ast.unparse(value).startswith("getattr(self, ")


def _value(call):
    """The node a check_range call passes as its value: its second argument."""
    given = call.args[1:2] + [k.value for k in call.keywords if k.arg == "value"]
    return given[0] if given else None

"""The benchmark's tracer wraps physgrd functions by name, from outside.

perfbench/tracing.py lists each traced function with every module or class
that holds a reference to it. Renaming or dropping one of those names (for
example the ``simulate`` import in ``calibration``) breaks ``--trace 1``
runs, so the names are checked here.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_every_traced_name_exists_in_every_owner(tracing):
    for name, owners, attr, _, _ in tracing.TRACED:
        for owner in owners:
            assert hasattr(owner, attr), f"{name}: {owner.__name__}.{attr} is gone"
            # the tracer wraps owners[0]'s function and installs it in every owner
            assert getattr(owner, attr) is getattr(owners[0], attr), f"{name}: {owner.__name__}"


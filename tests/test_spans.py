"""The benchmark's span targets: every traced name must exist in the package.

``perfbench/spans.py`` wraps the functions and class methods named in its
``TARGETS`` table; a renamed or deleted target would fail only the traced
benchmark run.  This test reads the table and resolves each name.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets() -> tuple:
    """The literal ``TARGETS`` tuple of the span module, read without importing it."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS table in {SPANS}")


def test_the_span_table_is_not_empty():
    assert len(_targets()) >= 20


@pytest.mark.parametrize("module, attr, span", _targets(), ids=lambda x: str(x))
def test_every_span_target_resolves(module, attr, span):
    owner = importlib.import_module(module)
    cls_name, _, name = attr.rpartition(".")
    if cls_name:
        cls = getattr(owner, cls_name)
        assert isinstance(cls, type), f"{module}.{cls_name} is not a class"
        assert callable(vars(cls).get(name)), f"{span}: {module}.{attr} is not a method"
    else:
        assert callable(getattr(owner, name, None)), f"{span}: {module}.{attr} does not exist"

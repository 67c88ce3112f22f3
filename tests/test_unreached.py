"""tools/unreached.py's listing, on a canned module and hit set."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_unreached():
    spec = importlib.util.spec_from_file_location("unreached", ROOT / "tools" / "unreached.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


unreached = _load_unreached()

CANNED = '''"""Module docstring."""

import os
from sys import path


def f(x):
    """f's docstring."""
    if x:
        return 1
    global y
    y = 2
    return (x +
            y)


class C:
    """C's docstring."""

    z: int = 3

    def g(self):
        pass
'''


def test_statements_leave_out_docstrings_defs_classes_and_imports():
    assert unreached.statements(CANNED) == [9, 10, 12, 13, 20, 23]


def test_listing_names_each_statement_line_not_hit():
    # line 14 continues the statement of line 13, which counts as not hit
    got = unreached.unreached("m.py", CANNED, {1, 3, 7, 9, 10, 14, 20})
    assert got == ["m.py:12: y = 2", "m.py:13: return (x +", "m.py:23: pass"]


def test_every_statement_hit_lists_nothing():
    assert unreached.unreached("m.py", CANNED, set(unreached.statements(CANNED))) == []

"""The code-line counter in ``tools/code_lines.py``."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _counter():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.code_lines


SOURCE = '''"""A module docstring,
over two lines."""

# a comment
total = sum(
    [1, 2])


def f():
    """A function docstring."""
    return total  # a trailing comment
'''


@pytest.mark.parametrize("source, want", [(SOURCE, 4), ('x = 1\ny = """a\nb"""\n', 3)])
def test_code_lines_counts_code_not_docstrings_comments_or_blank_lines(source, want):
    """In ``SOURCE`` the two-line statement counts twice, ``def f():`` and
    its return once each, and the docstrings, the comment and the blank
    lines not at all; a string that is no docstring counts on every line
    it spans."""
    assert _counter()(source) == want

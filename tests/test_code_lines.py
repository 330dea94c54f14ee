"""``tools/code_lines.py`` counts the code lines of each module: every count
in the change log and the roadmap comes from it."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Three docstrings, a comment-only line, blank lines, lines that end in a
# comment and a call over four lines.
SOURCE = '''"""Module docstring,
over two lines."""

import math  # code


# A comment-only line.
class Shape:
    """Class docstring."""

    sides = 4  # code

    def area(self, side):
        """Function docstring,

        over three lines."""
        return math.prod(  # code
            (side,
             side),
        )
'''


def test_counts_code_lines_only():
    # Counted: the import, the class line, sides, the def line, and the four
    # lines of the return call.  Not counted: the three docstrings, the
    # comment-only line and the blank lines.
    assert code_lines.code_lines(SOURCE) == 8


def test_a_docstring_is_only_the_leading_string_of_a_body():
    source = 'x = 1\n"""not a docstring"""\n\n\ndef f():\n    y = 2\n    "not one either"\n'
    assert code_lines.code_lines(source) == 5


def test_total_is_the_sum_of_the_module_counts(tmp_path, monkeypatch, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\ny = (x,\n     x)\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    monkeypatch.setattr(code_lines, "PACKAGE", tmp_path)
    assert code_lines.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["a.py", "8"], ["b.py", "3"], ["total", "11"]]

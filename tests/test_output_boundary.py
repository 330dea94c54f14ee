"""Every command's rows pass one finite check, in one place.

``cli.dispatch`` builds each command's rows and calls ``cli._require_finite``
once over all of them before ``cli.emit_csv`` writes anything.  These tests
fail when ``_require_finite`` is referenced anywhere else in ``cli.py``, or
when a finite test (``isfinite``) appears in ``cli.py`` outside
``_require_finite``: a second check would mean a second rule.
"""

import ast
from pathlib import Path

from test_draw_paths import uses

CLI = Path(__file__).resolve().parents[1] / "src" / "confrelay" / "cli.py"


def _names_the_check(node):
    return isinstance(node, ast.Name) and node.id == "_require_finite"


def _is_finite_test(node):
    """``isfinite`` as a name, an attribute (``math.isfinite``,
    ``np.isfinite``) or an imported name."""
    if isinstance(node, ast.Name):
        return node.id == "isfinite"
    if isinstance(node, ast.Attribute):
        return node.attr == "isfinite"
    if isinstance(node, ast.ImportFrom):
        return any(a.name == "isfinite" for a in node.names)
    return False


def test_the_finite_check_runs_only_in_dispatch():
    assert uses(CLI.read_text(encoding="utf-8"), _names_the_check) == ["dispatch"]


def test_isfinite_only_in_the_finite_check():
    assert uses(CLI.read_text(encoding="utf-8"), _is_finite_test) == ["_require_finite"]


def test_guard_flags_a_copy_with_a_second_call_site(tmp_path):
    copy = tmp_path / "cli.py"
    copy.write_text(CLI.read_text(encoding="utf-8").replace(
        "    return [(ORACLE_HEADER, rows)]\n",
        "    _require_finite([(ORACLE_HEADER, rows)])\n"
        "    return [(ORACLE_HEADER, rows)]\n"), encoding="utf-8")
    found = uses(copy.read_text(encoding="utf-8"), _names_the_check)
    assert sorted(found) == ["_oracle_tables", "dispatch"]


def test_detectors_see_calls_aliases_and_imports():
    source = (
        "import math\n"
        "from math import isfinite\n"
        "def check(rows):\n"
        "    return all(math.isfinite(v) for v in rows)\n"
        "def alias(tables):\n"
        "    run = _require_finite\n"
        "    run(tables)\n"
        "def dispatch(tables):\n"
        "    _require_finite(tables)\n"
    )
    assert uses(source, _is_finite_test) == [None, "check"]
    assert uses(source, _names_the_check) == ["alias", "dispatch"]

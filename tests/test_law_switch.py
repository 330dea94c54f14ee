"""A fading law's kind is read in one place.

``model._law`` turns a ``Cscg``, ``PointMass`` or ``PerIndex`` law into the
one description, ``model._Law``, that the moments and both samplers read.
Besides it, only the laws' own constructors and ``PerIndex._table`` (which
builds a ``PerIndex`` law's description from its entries) may ask
``isinstance`` about a law class; ``NetworkConfig`` checks its laws by
resolving them through ``_law``.  A second switch on the law's kind fails
these tests.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "confrelay"

LAWS = {"Cscg", "PointMass", "PerIndex"}
SWITCHES = {("model", "_law"), ("model", "Cscg.__post_init__"),
            ("model", "PointMass.__post_init__"), ("model", "PerIndex.__post_init__"),
            ("model", "PerIndex._table")}


def _is_law_switch(node):
    """An ``isinstance`` call whose class argument names a law class."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2):
        return False
    names = {n.id if isinstance(n, ast.Name) else n.attr
             for n in ast.walk(node.args[1]) if isinstance(n, (ast.Name, ast.Attribute))}
    return bool(names & LAWS)


def law_switches(source):
    """Dotted scope (``Class.method``, ``function``, or None at module level)
    of each law switch in ``source``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if _is_law_switch(child):
                found.append(scope)
            visit(child, scope)

    visit(ast.parse(source), None)
    return found


def library_switches(src=SRC):
    return {(path.stem, scope)
            for path in sorted(src.glob("*.py"))
            for scope in law_switches(path.read_text(encoding="utf-8"))}


def test_law_kinds_are_read_in_one_place():
    found = library_switches()
    assert found - SWITCHES == set()
    assert ("model", "_law") in found


def test_check_fails_on_a_copy_with_a_cscg_branch_in_the_sampler(tmp_path):
    added = {
        "model": ("\n\ndef sample_channel(spec, n, rng):\n"
                  "    if isinstance(spec, Cscg):\n"
                  "        scale = math.sqrt(spec.variance / 2.0)\n"
                  "        return scale * (rng.standard_normal(n)"
                  " + 1j * rng.standard_normal(n))\n"
                  "    return _sample(spec, n, rng)\n"),
        "rates": ("\n\nclass _Kernel:\n    def width(self, law):\n"
                  "        return 0 if isinstance(law, model.PointMass) else 2\n"),
        "cli": "\nGAUSSIAN = isinstance(DEFAULT, (Cscg, PerIndex))\n",
    }
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8")
                                          + added.get(path.stem, ""), encoding="utf-8")
    assert library_switches(tmp_path) - SWITCHES == {
        ("model", "sample_channel"), ("rates", "_Kernel.width"), ("cli", None)}


def test_detector_sees_tuples_unions_and_attributes_only_of_law_classes():
    source = (
        "def a(s):\n    return isinstance(s, Cscg | PointMass)\n"
        "def b(s):\n    return isinstance(s, (float, model.PerIndex))\n"
        "def c(s):\n    return isinstance(s, (float, complex))\n"
        "def d(s):\n    def inner(t):\n        return isinstance(t, PointMass)\n"
        "    return inner\n"
    )
    assert law_switches(source) == ["a", "b", "d.inner"]

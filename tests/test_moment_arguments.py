"""No library function takes a moment set.

A ``NetworkConfig`` builds its ``MomentSet`` once, when it is built, and
``model.moments`` returns it; every rate, oracle and engine function reads the
moments of the config it is given.  A function that took a moment set as well
could be handed the moments of another network, so a parameter named ``mom``
or annotated ``MomentSet`` anywhere in the library fails these tests.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "confrelay"


def _takes_moments(arg):
    """Whether a parameter is named ``mom`` or annotated with ``MomentSet``."""
    if arg.arg == "mom":
        return True
    if arg.annotation is None:
        return False
    for n in ast.walk(arg.annotation):
        name = (n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute)
                else n.value if isinstance(n, ast.Constant) else None)
        if isinstance(name, str) and "MomentSet" in name:
            return True
    return False


def moment_parameters(source):
    """(function name, parameter) of each parameter in ``source`` that takes
    a moment set; a lambda's name is ``<lambda>``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg):
                if arg is not None and _takes_moments(arg):
                    found.add((getattr(node, "name", "<lambda>"), arg.arg))
    return found


def library_moment_parameters(src=SRC):
    return {(path.stem, *found)
            for path in sorted(src.glob("*.py"))
            for found in moment_parameters(path.read_text(encoding="utf-8"))}


def test_no_function_takes_a_moment_set():
    assert library_moment_parameters() == set()


def test_check_fails_on_a_copy_that_takes_one_back(tmp_path):
    added = {
        "rates": "\n\ndef df_rate_with(real, cfg, mom):\n    return mom.m2_h\n",
        "montecarlo": ("\n\ndef _weights(cfg, given: MomentSet):\n"
                       "    return given.m2_g\n"),
        "asymptotics": ("\n\nclass _Limit:\n"
                        "    def of(self, cfg, *, known: 'model.MomentSet' = None):\n"
                        "        return known\n"),
    }
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8")
                                          + added.get(path.stem, ""), encoding="utf-8")
    assert library_moment_parameters(tmp_path) == {
        ("rates", "df_rate_with", "mom"), ("montecarlo", "_weights", "given"),
        ("asymptotics", "of", "known")}


def test_detector_sees_names_and_annotations_only_of_moment_sets():
    source = (
        "def a(x, mom):\n    return x\n"
        "def b(x: MomentSet | None):\n    return x\n"
        "def c(m2: np.ndarray, momentum: float, *moms):\n    return m2\n"
        "f = lambda cfg, mom=None: cfg\n"
        "def d(**kwargs: model.MomentSet):\n    return kwargs\n"
    )
    assert moment_parameters(source) == {("a", "mom"), ("b", "x"), ("<lambda>", "mom"),
                                         ("d", "kwargs")}

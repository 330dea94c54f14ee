"""The library draws randomness on three paths only.

``model.sample_realization`` draws one realization from its seed,
``model._seeded_normals`` draws the trial engine's blocks of seeded normals,
and ``montecarlo._oracle`` draws the signal oracles' symbols and noise.  A
second sampler or oracle loop would have to use ``numpy.random`` somewhere
else, and these tests fail when it does.

``model._seeded_normals`` also writes each row's seed state straight into its
generator's memory.  That is the library's only use of ``ctypes`` (its word
order helper, ``model._word_order``, is a pure function of the words read
back), and a test fails when ``ctypes`` appears anywhere else.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "confrelay"

DRAW_PATHS = {("model", "sample_realization"), ("model", "_seeded_normals"),
              ("montecarlo", "_oracle")}


def _annotation_ids(tree):
    """Ids of every node inside a type annotation."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            roots = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots = [node.returns]
        elif isinstance(node, ast.AnnAssign):
            roots = [node.annotation]
        else:
            continue
        ids.update(id(n) for root in roots if root is not None for n in ast.walk(root))
    return ids


def _is_numpy_random(node):
    if isinstance(node, ast.Attribute):
        return (node.attr == "random" and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy"))
    if isinstance(node, ast.Import):
        return any(a.name.startswith("numpy.random") for a in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return (module.startswith("numpy.random")
                or (module == "numpy" and any(a.name == "random" for a in node.names)))
    return False


def _is_ctypes(node):
    """The ``ctypes`` module, an array's or bit generator's ``.ctypes``
    interface, or ``numpy.ctypeslib``."""
    if isinstance(node, ast.Name):
        return node.id == "ctypes"
    if isinstance(node, ast.Attribute):
        return node.attr in ("ctypes", "ctypeslib")
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "ctypes" or a.name == "numpy.ctypeslib"
                   for a in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return (module.split(".")[0] == "ctypes" or module == "numpy.ctypeslib"
                or (module == "numpy" and any(a.name == "ctypeslib" for a in node.names)))
    return False


def uses(source, detect):
    """Top-level function (None outside one) of each node of ``source`` that
    ``detect`` flags, type annotations aside."""
    tree = ast.parse(source)
    skip = _annotation_ids(tree)
    found = []
    for stmt in tree.body:
        owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        found += [owner for node in ast.walk(stmt)
                  if id(node) not in skip and detect(node)]
    return found


def random_uses(source):
    return uses(source, _is_numpy_random)


def library_uses(detect=_is_numpy_random, src=SRC):
    return {(path.stem, owner)
            for path in sorted(src.glob("*.py"))
            for owner in uses(path.read_text(encoding="utf-8"), detect)}


def test_draws_stay_on_their_paths():
    assert library_uses() - DRAW_PATHS == set()


def test_every_draw_path_draws():
    assert DRAW_PATHS - library_uses() == set()


def test_ctypes_only_in_the_seeded_normals():
    assert library_uses(_is_ctypes) == {("model", "_seeded_normals")}


def test_ctypes_check_fails_on_a_copy_with_ctypes_elsewhere(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"),
                                          encoding="utf-8")
    rates = tmp_path / "rates.py"
    rates.write_text(rates.read_text(encoding="utf-8")
                     + "\n\ndef _peek(a):\n    return a.ctypes.data\n",
                     encoding="utf-8")
    assert library_uses(_is_ctypes, tmp_path) == {("model", "_seeded_normals"),
                                                  ("rates", "_peek")}


def test_detector_sees_calls_aliases_and_imports_but_not_annotations():
    source = (
        "import numpy as np\n"
        "from numpy.random import default_rng\n"
        "ALIAS = np.random.default_rng\n"
        "def sampler(seed, rng: np.random.Generator) -> np.random.Generator:\n"
        "    return np.random.default_rng(seed)\n"
        "def typed(rng: np.random.Generator):\n"
        "    value: np.random.Generator = rng\n"
        "    return rng.random(3)\n"
    )
    assert random_uses(source) == [None, None, "sampler"]


def test_ctypes_detector_sees_modules_interfaces_and_imports():
    source = (
        "import ctypes\n"
        "from ctypes import c_uint64\n"
        "import numpy as np\n"
        "def view(bitgen):\n"
        "    return bitgen.ctypes.state_address\n"
        "def wrap(a):\n"
        "    return np.ctypeslib.as_array(a)\n"
        "def typed(a: ctypes.c_void_p):\n"
        "    return a\n"
    )
    assert uses(source, _is_ctypes) == [None, None, "view", "wrap"]

"""The library draws randomness on three paths only.

``model.sample_realization`` draws one realization from its seed,
``model._seeded_normals`` draws the trial engine's blocks of seeded normals,
and ``montecarlo._oracle`` draws the signal oracles' symbols and noise.  A
second sampler or oracle loop would have to use ``numpy.random`` somewhere
else, and these tests fail when it does.
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


def random_uses(source):
    """Top-level function (None outside one) of each use of ``numpy.random``
    in ``source``, type annotations aside."""
    tree = ast.parse(source)
    skip = _annotation_ids(tree)
    uses = []
    for stmt in tree.body:
        owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        uses += [owner for node in ast.walk(stmt)
                 if id(node) not in skip and _is_numpy_random(node)]
    return uses


def library_uses():
    return {(path.stem, owner)
            for path in sorted(SRC.glob("*.py"))
            for owner in random_uses(path.read_text(encoding="utf-8"))}


def test_draws_stay_on_their_paths():
    assert library_uses() - DRAW_PATHS == set()


def test_every_draw_path_draws():
    assert DRAW_PATHS - library_uses() == set()


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

"""The library draws randomness on three paths only.

``model.sample_realization`` draws one realization from its seed,
``model._thread_generator`` makes the generator that draws the trial engine's
blocks of seeded normals, and ``montecarlo._oracle`` draws the signal
oracles' symbols and noise.  A second sampler or oracle loop would have to
use ``numpy.random`` somewhere else, and these tests fail when it does.

``model._thread_generator`` also makes the view through which each row's
seed state is written straight into its generator's memory.  That is the
library's only use of ``ctypes`` (its word order helper,
``model._word_order``, is a pure function of the words read back), and a
test fails when ``ctypes`` appears anywhere else.

Rows of at least ``model._HELPED_ROW_NORMALS`` normals are drawn in slabs
by a thread pool of at most ``_CPUS - 1`` threads and by the waiting caller,
which draws the slabs no pool thread has started.  ``model._Fill`` makes
that pool, ``_POOL``, in the library's one ``ThreadPoolExecutor(`` call, and
a test fails when a thread or a pool of them is started anywhere else.

Which normals trial ``t`` of a run draws, and in which blocks, is decided in
``model`` alone: no other module may name the state derivation ``_states``,
the row loop ``_draw_rows``, its slab job ``_draw_slab``, its generator,
the per-thread record ``_THREAD``, the first rows it keeps (``_first_rows``,
their bound ``_KEPT_ELEMENTS`` and allocation floor ``_KEPT_FLOOR``), the chunk and
block constants ``_STATE_CHUNK`` and ``_BLOCK_ELEMENTS``, the fills and their
pool (``_Fill``, ``_POOL``, the helper threshold ``_HELPED_ROW_NORMALS`` and
slab size ``_SLAB_NORMALS``), the CPU count ``_CPUS`` or the SplitMix64 seed
mixer's constants, by name or written out as numbers.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "confrelay"

DRAW_PATHS = {("model", "sample_realization"), ("model", "_thread_generator"),
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


def _is_thread_start(node):
    """A ``Thread``, a pool of threads or processes, ``start_new_thread``, or
    an import of ``_thread``, ``concurrent`` or ``multiprocessing``."""
    names = ("Thread", "ThreadPoolExecutor", "ProcessPoolExecutor", "start_new_thread")
    if isinstance(node, ast.Name):
        return node.id in names
    if isinstance(node, ast.Attribute):
        return node.attr in names
    modules = ("_thread", "concurrent", "multiprocessing")
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] in modules for a in node.names)
    if isinstance(node, ast.ImportFrom):
        return ((node.module or "").split(".")[0] in modules
                or any(a.name in names for a in node.names))
    return False


# What only ``model`` may refer to: the state derivation, the row loop, its
# slab job and its generator, each thread's record and first rows, the fills
# and their pool, the chunk, block, first-row, helper-threshold and slab
# sizes, the CPU count and the seed mixer's constants, by name, and the
# constants' values.
TRIAL_DRAW_NAMES = {"_states", "_draw_rows", "_draw_slab", "_thread_generator",
                    "_THREAD", "_first_rows", "_KEPT_ELEMENTS", "_KEPT_FLOOR",
                    "_STATE_CHUNK", "_BLOCK_ELEMENTS", "_Fill", "_POOL",
                    "_HELPED_ROW_NORMALS", "_SLAB_NORMALS", "_CPUS", "_GOLDEN", "_MIX1",
                    "_MIX2"}
SPLITMIX64 = {0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB}


def _is_trial_draw_internal(node):
    """A name, attribute or import of ``TRIAL_DRAW_NAMES``, or an integer
    literal equal to a SplitMix64 constant."""
    if isinstance(node, ast.Name):
        return node.id in TRIAL_DRAW_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in TRIAL_DRAW_NAMES
    if isinstance(node, ast.alias):
        return node.name in TRIAL_DRAW_NAMES
    if isinstance(node, ast.Constant):
        return type(node.value) is int and node.value in SPLITMIX64
    return False


def uses(source, detect):
    """Top-level function or class (None outside one) of each node of
    ``source`` that ``detect`` flags, type annotations aside."""
    tree = ast.parse(source)
    skip = _annotation_ids(tree)
    found = []
    for stmt in tree.body:
        owner = (stmt.name if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                ast.ClassDef)) else None)
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
    assert library_uses(_is_ctypes) == {("model", "_thread_generator")}


def test_ctypes_check_fails_on_a_copy_with_ctypes_elsewhere(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"),
                                          encoding="utf-8")
    rates = tmp_path / "rates.py"
    rates.write_text(rates.read_text(encoding="utf-8")
                     + "\n\ndef _peek(a):\n    return a.ctypes.data\n",
                     encoding="utf-8")
    assert library_uses(_is_ctypes, tmp_path) == {("model", "_thread_generator"),
                                                  ("rates", "_peek")}


def thread_starts(src=SRC):
    """``library_uses`` of thread starts, and the number of
    ``ThreadPoolExecutor(`` and of ``Thread(`` calls in ``src``."""
    text = "".join(path.read_text(encoding="utf-8") for path in sorted(src.glob("*.py")))
    return (library_uses(_is_thread_start, src), text.count("ThreadPoolExecutor("),
            text.count("Thread("))


def test_threads_start_only_in_the_fill_pool():
    assert thread_starts() == ({("model", "_Fill")}, 1, 0)


def test_thread_check_fails_on_a_copy_that_starts_threads(tmp_path):
    added = {
        "model": "\n\ndef _helper(f):\n    threading.Thread(target=f).start()\n",
        "rates": "\n\ndef _spawn(f):\n    threading.Thread(target=f).start()\n",
        "montecarlo": "\nfrom concurrent.futures import ThreadPoolExecutor\n",
        "cli": "\n\ndef _pool(f):\n    return ThreadPoolExecutor(2).submit(f)\n",
    }
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8")
                                          + added.get(path.stem, ""), encoding="utf-8")
    assert thread_starts(tmp_path) == ({
        ("model", "_Fill"), ("model", "_helper"), ("rates", "_spawn"), ("montecarlo", None),
        ("cli", "_pool")}, 2, 2)


def test_trial_draw_internals_stay_in_model():
    assert {module for module, _ in library_uses(_is_trial_draw_internal)} == {"model"}


def test_trial_draw_check_fails_on_a_copy_that_reads_them(tmp_path):
    added = {
        "asymptotics": ("\n\ndef _block(n):\n    return max(1, model._BLOCK_ELEMENTS // n)\n"
                        "\n\ndef _room(width):\n    return model._KEPT_ELEMENTS // width\n"),
        "montecarlo": "\n\ndef _mix(z):\n    return z * 0xBF58476D1CE4E5B9 & MASK64\n",
        "rates": "\nfrom .model import _first_rows as _draw\n",
        "cli": ("\nfrom .model import _STATE_CHUNK\n\n\ndef _walk(seed):\n"
                "    return model._states(seed, 0, 3)\n"
                "\n\ndef _split(z):\n    return min(model._CPUS, z.size // _HELPED_ROW_NORMALS)\n"),
    }
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8")
                                          + added.get(path.stem, ""), encoding="utf-8")
    found = library_uses(_is_trial_draw_internal, tmp_path)
    assert {(m, owner) for m, owner in found if m != "model"} == {
        ("asymptotics", "_block"), ("asymptotics", "_room"), ("montecarlo", "_mix"),
        ("rates", None),
        ("cli", None), ("cli", "_walk"), ("cli", "_split")}


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

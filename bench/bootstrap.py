"""Process set-up shared by the benchmark's entry points.

Pins every BLAS and OpenMP pool to one thread before numpy is imported, and
puts the checkout's ``src`` first on ``sys.path``.  A checkout without the
library's sources is an error, never a fall-back to an installed copy.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

THREAD_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_ENV)

if not os.path.isfile(os.path.join(SRC, "confrelay", "__init__.py")):
    sys.exit(f"bench: no library sources at {SRC}; run from a full checkout")
sys.path.insert(0, SRC)

import confrelay  # noqa: E402

if os.path.dirname(os.path.dirname(os.path.abspath(confrelay.__file__))) != SRC:
    sys.exit(f"bench: imported confrelay from {confrelay.__file__}, not {SRC}")

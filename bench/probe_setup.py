"""Set-up time of one workload, measured in this fresh process.

Times the import of the library, config parsing or construction, the moment
sets and one warm-up unit call, then the calibration kernel, and prints
``{"setup_s": ..., "kernel_s": ...}``.

    python3 bench/probe_setup.py --workload sweep_small_n --seed 1
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402

import bootstrap  # noqa: E402,F401
import calibration  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    workloads.make(args.workload, args.tiny).setup(args.seed)
    setup_s = time.perf_counter() - T0
    kernel_s = statistics.median(calibration.kernel_seconds() for _ in range(3))
    print(json.dumps({"setup_s": setup_s, "kernel_s": kernel_s}))


if __name__ == "__main__":
    main()

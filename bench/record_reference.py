"""Record every workload's reference output at the reference seed.

    python3 bench/record_reference.py

Writes ``bench/reference.json``: the serialized output of pass 0 at
``REFERENCE_SEED`` for each workload.  Run it only at a commit whose
outputs are known to be right; ``run.py`` compares against this file.
"""

import json
import os

import bootstrap
import workloads


def main() -> None:
    os.makedirs(bootstrap.OUT_DIR, exist_ok=True)
    recorded = {}
    for name in sorted(workloads.WORKLOADS):
        wl = workloads.make(name)
        wl.prepare(bootstrap.OUT_DIR)
        inp = wl.inputs(workloads.REFERENCE_SEED, 0)
        out = wl.execute(inp)
        bad, why = wl.check(inp, out)
        if bad:
            raise SystemExit(f"{name}: output fails its check: {why}")
        recorded[name] = wl.serialize(out)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seed": workloads.REFERENCE_SEED, "workloads": recorded},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

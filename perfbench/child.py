"""The processes ``run.py`` starts: input generation and program set-up.

    python3 perfbench/child.py generate <workload> <seed> <scale>  > spec
    python3 perfbench/child.py setup < spec

``generate`` writes the workload's inputs to stdout as a pickle.
``setup`` reads that pickle, sets the program up once in this fresh
interpreter and prints the times of its three parts as JSON, in
reference seconds and as raw wall times.  Nothing
here may import ``repro`` before :func:`setup_sample` times it.
"""

from __future__ import annotations

import json
import pickle
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def setup_sample(spec: dict):
    """Import the program, build its relations and prime its cache, timing
    each part; returns the set-up workload, the parts' times in reference
    seconds (see speed.py) and their raw wall times."""
    if "repro" in sys.modules:
        raise RuntimeError("repro was imported before its import was timed")
    import speed

    kernels = [speed.settled_kernel_seconds()]
    walls = {}
    start = time.perf_counter()
    import repro  # noqa: F401
    walls["import_s"] = time.perf_counter() - start
    kernels.append(speed.settled_kernel_seconds())

    import workloads

    workload = workloads.WORKLOADS[spec["workload"]](spec)
    for part, step in (("load_s", workload.load), ("prime_s", workload.prime)):
        start = time.perf_counter()
        step()
        walls[part] = time.perf_counter() - start
        kernels.append(speed.settled_kernel_seconds())
    scaled = {part: wall * speed.scale(before, after) for (part, wall), before,
              after in zip(walls.items(), kernels, kernels[1:])}
    return workload, scaled, walls


def main(argv: list[str]) -> int:
    if argv[:1] == ["generate"] and len(argv) == 4:
        import workloads

        _, name, seed, scale = argv
        spec = workloads.generate(name, int(seed), scale)
        spec["workload"] = name
        sys.stdout.buffer.write(pickle.dumps(spec, pickle.HIGHEST_PROTOCOL))
        return 0
    if argv == ["setup"]:
        # the pickle was written by this benchmark's own generate step
        spec = pickle.loads(sys.stdin.buffer.read())
        _, scaled, walls = setup_sample(spec)
        print(json.dumps({"scaled": scaled, "wall": walls}))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Record the golden outputs the benchmark checks every op against.

    python3 perfbench/golden.py [workload ...]

Runs every task in each workload's pool once and writes
perfbench/golden/<workload>.json.  The records in the repository were made
from the package at the commit named inside each file; re-record only when
a change is meant to alter outputs, and say so.
"""

from __future__ import annotations

import json
import sys

import run


def main(names):
    run.pin_blas()
    run.import_package()
    import workloads

    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names or run.WORKLOADS:
        wl = workloads.make(name)
        outputs = {wl.key(task): wl.record(wl.run(task)) for task in wl.pool()}
        path = workloads.golden_path(name)
        rows = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                          for k, v in outputs.items())
        path.write_text(
            f'{{"workload": {json.dumps(name)},\n'
            f'"commit": {json.dumps(run.git_commit())},\n'
            f'"outputs": {{\n{rows}\n}}}}\n')
        print(f"{path}: {len(outputs)} tasks")


if __name__ == "__main__":
    main(sys.argv[1:])

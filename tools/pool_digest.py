"""Bit digest of the benchmark's draw pools, and a per-field diff of two.

Replays every task of the desk-sweep and paper-draws pools (the tasks of
their golden records) with this checkout's src/ at one BLAS thread, through
perfbench/workloads.py loaded from its file.  Each row (task, method) is
written as its k_hat and the float.hex of its float fields, and a sha256
over each pool's rows, in pool order, is printed:

    python tools/pool_digest.py --out digest.json
    python tools/pool_digest.py --compare parent.json change.json

--compare reads two --out files and prints, per pool and field, how many
values moved and the worst relative change |b - a| / max(|a|, |b|).
Two checkouts are compared by running the same script from each.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POOLS = ("desk-sweep", "paper-draws")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _load_workloads():
    """perfbench/workloads.py of this checkout, importing doamap from its
    src/ at one BLAS thread; numpy must not be loaded yet."""
    if "numpy" in sys.modules:
        raise SystemExit("error: numpy is already loaded; its BLAS thread "
                         "count can no longer be pinned")
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    sys.path.insert(0, str(ROOT / "src"))
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if Path(module.doamap.__file__).resolve().parent != ROOT / "src" / "doamap":
        raise SystemExit(f"error: imported doamap from {module.doamap.__file__}")
    return module


def replay(workloads, name):
    """{"task/method": {"k_hat": int, field: float.hex}} over the pool."""
    wl = workloads.make(name)
    rows = {}
    for task in wl.pool():
        for method, rec in wl.record(wl.run(task)).items():
            rows[f"{wl.key(task)}/{method}"] = {
                "k_hat": rec["k_hat"],
                **{f: float.hex(rec[f]) for f in workloads.FLOAT_FIELDS}}
    return rows


def digest(rows):
    """sha256 over one line per row: its key, k_hat and float.hex fields."""
    text = "".join("\t".join([key, *map(str, row.values())]) + "\n"
                   for key, row in rows.items())
    return hashlib.sha256(text.encode()).hexdigest()


def compare(a, b):
    """Lines of per-field moved counts and worst relative changes."""
    lines = []
    for pool in a:
        rows_a, rows_b = a[pool]["rows"], b[pool]["rows"]
        if rows_a.keys() != rows_b.keys():
            raise SystemExit(f"error: {pool}: the two files hold different rows")
        same = a[pool]["sha256"] == b[pool]["sha256"]
        lines.append(f"{pool}: {len(rows_a)} rows, sha256 "
                     f"{'equal' if same else 'differs'}")
        for field in next(iter(rows_a.values())):
            moved, worst, where = 0, 0.0, ""
            for key, row in rows_a.items():
                va, vb = row[field], rows_b[key][field]
                if va == vb:
                    continue
                moved += 1
                if field == "k_hat":
                    continue
                x, y = float.fromhex(va), float.fromhex(vb)
                scale = max(abs(x), abs(y))
                rel = (math.inf if math.isnan(x) != math.isnan(y)
                       else abs(y - x) / scale if scale else 0.0)
                if rel > worst:
                    worst, where = rel, key
            lines.append(f"  {field:14s} moved {moved:5d}"
                         + (f"  worst {worst:.3g} at {where}" if where else ""))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="write the rows as JSON here")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="diff two --out files instead of replaying")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(p.read_text()) for p in args.compare)
        print("\n".join(compare(a, b)))
        return 0
    workloads = _load_workloads()
    result = {}
    for name in POOLS:
        rows = replay(workloads, name)
        result[name] = {"sha256": digest(rows), "rows": rows}
        print(f"{name}: {len(rows)} rows, sha256 {result[name]['sha256']}")
    everything = {f"{name}/{key}": row for name in POOLS
                  for key, row in result[name]["rows"].items()}
    print(f"all: {len(everything)} rows, sha256 {digest(everything)}")
    if args.out:
        args.out.write_text(json.dumps(result, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

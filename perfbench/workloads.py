"""The benchmark workloads: the inputs each op gets, the op itself, and the
golden record every op's output is checked against.

Ops call the package through module attributes (`bench.run_single`, not a
name imported here), so that `tracing.instrument` sees them.
"""

from __future__ import annotations

import json
import math
import operator
import random
from pathlib import Path

import numpy as np

import doamap
from doamap import bench

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Float outputs must agree with the golden record to this relative error;
# k_hat, check names, tolerances and verdicts must agree exactly.
REL_TOL = 1e-10
FLOAT_FIELDS = ("err_doa", "rmse_a0", "rmse_a_shrunk", "rmse_sigma", "tau_mean")


class SweepWorkload:
    """One op is one Monte Carlo draw: a `run_single` call with all methods.

    Tasks are (grid index, run index) pairs from a fixed pool whose outputs
    are in the golden record.  The seed picks the order: each cycle visits
    every grid point once, in shuffled order, with a random run index from
    the pool.  Runs end on a cycle boundary, so every run has the same mix
    of SNRs and overlaps, which set most of a draw's cost.
    """

    def __init__(self, name, config, pool_runs, writes_csv):
        self.name = name
        self.config = config
        self.pool_runs = pool_runs
        self.writes_csv = writes_csv
        self.grid = config.grid_points()
        self.cycle_len = len(self.grid)

    def tasks(self, seed):
        rng = random.Random(seed)
        order = list(range(len(self.grid)))
        while True:
            rng.shuffle(order)
            for gi in order:
                yield gi, rng.randrange(self.pool_runs)

    def pool(self):
        return [(gi, ri) for gi in range(len(self.grid))
                for ri in range(self.pool_runs)]

    @staticmethod
    def key(task):
        return "%d:%d" % task

    def run(self, task):
        # Same scenario and RNG substream as one task of `doamap sweep`.
        gi, ri = task
        cfg = self.config
        snr, overlap, decay = self.grid[gi]
        scenario = doamap.ArrayScenario(
            d=cfg.d, k_true=cfg.k_true, m=cfg.m, n=cfg.n,
            doa_deg=cfg.resolved_doas(), overlap=overlap, decay=decay,
            snr_db=snr, seed=cfg.master_seed,
        )
        rng = np.random.default_rng([cfg.master_seed, gi, ri])
        rows = bench.run_single(scenario, cfg.k_max, cfg.grid_step_deg,
                                cfg.methods, rng=rng)
        return [bench.RunRecord(snr_db=snr, overlap=overlap, decay=decay,
                                run=ri, **row) for row in rows]

    @staticmethod
    def record(out):
        """The golden-comparable part of an op's output (no `wall_ms`)."""
        return {r.method: {"k_hat": operator.index(r.k_hat),
                           **{f: float(getattr(r, f)) for f in FLOAT_FIELDS}}
                for r in out}

    def write(self, outputs, path):
        """Write the results and aggregate CSVs as `doamap sweep` does.

        Returns a list of problems found reading the row counts back.
        """
        records = [rec for out in outputs for rec in out]
        agg_path = path.with_name(path.stem + "_agg" + path.suffix)
        bench.write_results(records, path)
        bench.write_aggregates(records, agg_path, k_true=self.config.k_true)
        groups = {(r.method, r.snr_db, r.overlap, r.decay) for r in records}
        problems = []
        for p, want in ((path, len(records)), (agg_path, len(groups))):
            lines = [ln for ln in p.read_text().splitlines()
                     if ln and not ln.startswith("#")]
            if len(lines) - 1 != want:  # one header line
                problems.append(f"{p.name}: {len(lines) - 1} rows, want {want}")
        return problems


class IdentityWorkload:
    """One op is one `validate_distributions()` pass with default arguments,
    as `doamap validate-dist` runs it.  Its inputs are fixed by the suite,
    so the seed does not change them."""

    name = "identity-suite"
    config = None
    cycle_len = 1
    writes_csv = False

    @staticmethod
    def tasks(seed):
        while True:
            yield 0

    def pool(self):
        return [0]

    @staticmethod
    def key(task):
        return "suite"

    @staticmethod
    def run(task):
        return bench.validate_distributions()

    @staticmethod
    def record(out):
        passed, checks = out
        return {"passed": bool(passed),
                "checks": {name: {"tol": float(tol), "ok": bool(ok)}
                           for name, _err, tol, ok in checks}}


def make(name):
    if name == "desk-sweep":
        return SweepWorkload(
            name, bench.ExperimentConfig(overlap=(0.0, 0.999)),
            pool_runs=10, writes_csv=True)
    if name == "paper-draws":
        return SweepWorkload(
            name, bench.ExperimentConfig.paper_scale(
                snr_grid_db=(-20.0, 0.0, 20.0)),
            pool_runs=4, writes_csv=False)
    if name == "identity-suite":
        return IdentityWorkload()
    raise ValueError(f"unknown workload {name!r}")


def golden_path(name):
    return GOLDEN_DIR / f"{name}.json"


def load_golden(name):
    return json.loads(golden_path(name).read_text())["outputs"]


def mismatches(expected, got, where=""):
    """Differences between a golden record and an op's record."""
    if isinstance(expected, dict):
        if not isinstance(got, dict) or expected.keys() != got.keys():
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r}"
                    f" != {sorted(expected)}"]
        return [m for k in expected
                for m in mismatches(expected[k], got[k], f"{where}/{k}")]
    if isinstance(expected, float) and isinstance(got, float):
        if math.isnan(expected) and math.isnan(got):
            return []
        if abs(got - expected) <= REL_TOL * max(abs(expected), abs(got)):
            return []
    elif type(got) is type(expected) and got == expected:
        return []
    return [f"{where}: {got!r} != golden {expected!r}"]


def self_check(golden_record):
    """True if the comparison rejects a perturbed k_hat (or verdict)."""
    bad = json.loads(json.dumps(golden_record))
    if "checks" in bad:
        first = next(iter(bad["checks"].values()))
        first["ok"] = not first["ok"]
    else:
        first = next(iter(bad.values()))
        first["k_hat"] += 1
    return bool(mismatches(golden_record, bad)) and not mismatches(
        golden_record, json.loads(json.dumps(golden_record)))

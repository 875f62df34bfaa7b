"""Monte Carlo harness: sweep configuration, pipelines, CSV emission.

One task = (grid point, run index).  Every task draws its noise from an
independent substream keyed by (master_seed, grid index, run index), so the
result CSV is byte-identical no matter how many workers execute the sweep.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .arraysim import (
    ArrayScenario,
    amplitude_matrix,
    default_doas,
    noise_variances,
    spatial_frequency,
    steering_matrix,
    synth_freq,
)
from .metrics import err_doa, rmse_amplitude
from .ordermap import (
    ProjectionStats,
    aic_order,
    map_order_pca,
    map_order_scan,
    posterior_variances,
)
from .subspace import (
    dtft_spectrum,
    eigendecompose,
    music_candidates,
    music_exact,
    music_pseudospectrum,
    pick_peaks,
    projection_stats,
    sample_covariance,
)

__all__ = [
    "ExperimentConfig",
    "RunRecord",
    "ConfigError",
    "CSV_HEADER",
    "METRICS",
    "run_single",
    "spectrum_peaks",
    "run_sweep",
    "write_results",
    "write_aggregates",
    "read_results",
    "aggregate",
    "emit_curves",
    "validate_distributions",
]

KNOWN_METHODS = (
    "pca-map",
    "music-map",
    "dtft-map",
    "music-aic",
    "music-known-k",
    "dtft-known-k",
)

# RunRecord's metric fields (after k_hat); every results writer/reader uses it
METRICS = ("err_doa", "rmse_a0", "rmse_a_shrunk", "rmse_sigma", "tau_mean")

CSV_SCHEMA_COMMENT = "# doamap-results v2"
CSV_HEADER = ",".join(("method", "snr_db", "overlap", "decay", "run", "k_hat")
                      + METRICS)
# one parser per CSV_HEADER column, in RunRecord field order
_CSV_PARSERS = (str, float, float, float, int, int) + (float,) * len(METRICS)


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """Full sweep description; desk-scale defaults, paper scale via flag.

    The fields are the config-file keys, and each value is parsed by its
    field's annotation (see parse_file).
    """

    d: int = 32
    k_true: int = 3
    m: int = 512
    n: int = 512
    overlap: tuple[float, ...] = (0.0,)
    decay: tuple[float, ...] = (0.0,)
    doa_deg: tuple[float, ...] = ()  # explicit DOAs; empty = default spacing
    snr_grid_db: tuple[float, ...] = (-30.0, -25.0, -20.0, -15.0, -10.0, -5.0,
                                      0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    k_max: int = 10
    grid_step_deg: float = 0.5
    n_runs: int = 100
    master_seed: int = 0
    methods: tuple[str, ...] = ("pca-map", "music-map", "dtft-map", "music-aic")
    output_path: str = "results.csv"

    def __post_init__(self):
        if self.k_true < 1 or self.k_max < 1:
            raise ConfigError(f"k_true ({self.k_true}) and k_max ({self.k_max}) "
                              "must be >= 1")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.k_max >= self.d:
            raise ConfigError(f"k_max ({self.k_max}) must be < d ({self.d})")
        if self.n_runs < 1:
            raise ConfigError("n_runs must be >= 1")
        for meth in self.methods:
            if meth not in KNOWN_METHODS:
                raise ConfigError(f"unknown method {meth!r}")
        # a scan stops at k_max, so known-k would fit the k_max prefix
        if self.k_true > self.k_max and any(
                meth.endswith("-known-k") for meth in self.methods):
            raise ConfigError(f"known-k methods need k_true ({self.k_true}) "
                              f"<= k_max ({self.k_max})")
        if self.m < 2:
            raise ConfigError("m must be >= 2 (posterior means need K*M > 1)")
        # arange makes ceil(180 / step) points, an intp count; run_single
        # drops a last point whose cosine rounds to -1, keeping one or more
        if not (0 < self.grid_step_deg < 180
                and 180 / self.grid_step_deg <= np.iinfo(np.intp).max):
            raise ConfigError("grid_step_deg must be in (0, 180) with an "
                              f"intp-sized grid, got {self.grid_step_deg}")
        for name in ("snr_grid_db", "overlap", "decay", "methods"):
            values = getattr(self, name)
            if not values:
                raise ConfigError(f"{name} must not be empty")
            if len(set(values)) != len(values):  # aggregate() would merge them
                raise ConfigError(f"{name} has duplicate entries: {values}")
        for name in ("snr_grid_db", "overlap", "decay"):
            # read back from the CSVs, entries that print alike would merge
            printed = [_grid_str(v) for v in getattr(self, name)]
            if len(set(printed)) != len(printed):
                raise ConfigError(f"{name} has entries that print alike in the "
                                  f"CSVs: {', '.join(printed)}")
        self.scenarios()  # each ArrayScenario checks m <= n, DOAs, overlap, SNR

    def scenarios(self):
        """The ArrayScenario of every grid point, in grid_points order; a
        point ArrayScenario rejects is a ConfigError naming it."""
        doas = self.resolved_doas()
        out = []
        for point in self.grid_points():
            snr, overlap, decay = point
            try:
                out.append(ArrayScenario(
                    d=self.d, k_true=self.k_true, m=self.m, n=self.n,
                    doa_deg=doas, overlap=overlap, decay=decay,
                    snr_db=snr, seed=self.master_seed))
            except ValueError as exc:
                raise ConfigError(f"grid point {point}: {exc}") from exc
        return out

    def resolved_doas(self):
        return tuple(self.doa_deg) or default_doas(self.k_true)

    def grid_points(self):
        """(snr_db, overlap, decay) in deterministic sweep order."""
        return list(product(self.snr_grid_db, self.overlap, self.decay))

    @classmethod
    def paper_scale(cls, **overrides):
        base = dict(d=100, k_true=5, m=4096, n=4096, n_runs=1000,
                    grid_step_deg=0.1)
        base.update(overrides)
        return cls(**base)

    @classmethod
    def parse_file(cls, path):
        """The settings of a flat key = value config file, by field name.

        Commas separate the entries of a tuple field; each value or entry is
        parsed by the field's annotation.  An unknown key, a key set twice or
        a value its type rejects is a ConfigError.
        """
        types = get_type_hints(cls)
        settings, key_lines = {}, {}
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in types:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            if key_lines.setdefault(key, lineno) != lineno:
                raise ConfigError(f"{path}:{lineno}: {key!r} is already set "
                                  f"on line {key_lines[key]}")
            try:
                settings[key] = _parse(types[key], value)
            except ValueError as exc:
                raise ConfigError(
                    f"{path}:{lineno}: bad value for {key}: {exc}") from exc
        return settings


def _parse(annotation, text):
    """A config value by its field's annotation; tuple entries split on ','."""
    if get_origin(annotation) is tuple:
        entry = get_args(annotation)[0]
        return tuple(entry(v.strip()) for v in text.split(",") if v.strip())
    return annotation(text)


@dataclass(frozen=True)
class RunRecord:
    method: str
    snr_db: float
    overlap: float
    decay: float
    run: int
    k_hat: int
    err_doa: float
    rmse_a0: float
    rmse_a_shrunk: float
    rmse_sigma: float
    tau_mean: float

    def csv_row(self):
        return (f"{self.method},{_grid_str(self.snr_db)},"
                f"{_grid_str(self.overlap)},{_grid_str(self.decay)},"
                f"{self.run},{self.k_hat},"
                + ",".join(f"{getattr(self, col):.10g}" for col in METRICS))


def _grid_str(value):
    """A grid value (snr_db, overlap or decay) as the CSVs and curve file
    names print it; values that print alike are one group once read back."""
    return f"{value:g}"


def spectrum_peaks(cov, basis, grid, k_max, sources):
    """{source: (angles, steering rows)} of the peaks of the music and dtft
    spectra among `sources`, highest first, rows P x D, P <= k_max.

    cov is R = Y Y^H and basis its eigenbasis.  The DTFT peaks are those
    of its lag polynomial.  MUSIC's polynomial only locates candidates:
    its peaks are picked on the exact pseudospectrum at each candidate and
    its two neighbours, NaN elsewhere, so no other point can peak.  One
    steering_matrix call gives every row that is read.
    """
    d = cov.shape[0]
    omega = spatial_frequency(grid)
    idx, near = {}, np.empty(0, dtype=np.intp)  # near: sorted grid indices
    if "dtft" in sources:
        idx["dtft"] = pick_peaks(dtft_spectrum(cov, omega), k_max)
        near = np.sort(idx["dtft"])
    if "music" in sources:
        near = np.union1d(near, music_candidates(
            music_pseudospectrum(basis.eigvecs, k_max, omega), d, k_max))
    steer = steering_matrix(grid[near], d).T  # row i steers toward grid[near[i]]
    if "music" in sources:
        exact = np.full(grid.size, np.nan)
        exact[near] = music_exact(basis.eigvecs, k_max, steer)
        idx["music"] = pick_peaks(exact, k_max)
    return {source: (grid[i], steer[np.searchsorted(near, i)])
            for source, i in idx.items()}


def run_single(scenario: ArrayScenario, k_max, grid_step_deg, methods, rng=None):
    """Execute every requested pipeline on one data draw.

    A method is '<source>-<rule>'.  Each source (pca, or the peaks of the
    music or dtft spectrum, lag polynomials of R = Y Y^H and of the noise
    projector, MUSIC's ranked by its exact pseudospectrum; see
    spectrum_peaks) runs its order scan once; the rule only picks K: map
    the MAP order, aic the AIC order, known-k the true count.  The scans
    and amplitude fits read only the peaks' steering rows.  One fit per
    (source, K), shared by every method picking it, builds one split
    (ProjectionStats.from_energy) and one posterior: PCA's on its scan's
    s, reusing the log I_p of an order the scan scored; a spectrum's on
    Y's energy on the prefix, whose one SVD and one product with Y also
    give the amplitude fit (see projection_stats).  A K past the last
    full-rank prefix reads that prefix's posterior and fits its peaks,
    while the row keeps the rule's K.
    Returns dicts with the per-method metric fields of RunRecord (run_sweep
    fills in the rest).
    """
    y = synth_freq(scenario, rng=rng)
    true_amps = amplitude_matrix(scenario)
    sigma_true = math.sqrt(noise_variances(scenario, true_amps))

    grid = np.arange(0.0, 180.0, grid_step_deg)
    # rounding can put the last point at 180 degrees (cos = -1), which is the
    # direction of 0 degrees; keep each direction once
    grid = grid[np.cos(np.deg2rad(grid)) > -1.0]
    # every second-order stage reads R = Y Y^H or its eigenbasis
    cov = sample_covariance(y)
    basis = eigendecompose(cov)
    abs_y = np.abs(y)  # squared in place, then freed: one D x M temporary
    norm2_y = float(np.sum(np.square(abs_y, out=abs_y)))
    del abs_y
    pairs = [method.split("-", 1) for method in methods]  # (source, rule)
    sources = {source for source, _rule in pairs}
    posts = {}
    if "pca" in sources:
        posts["pca"] = map_order_pca(basis, norm2_y, k_max, scenario.m)
    # peaks: source -> (angles, steering rows)
    peaks = (spectrum_peaks(cov, basis, grid, k_max, sources)
             if sources & {"music", "dtft"} else {})
    for source, (_angles, rows) in peaks.items():
        posts[source] = map_order_scan(cov, rows, k_max, scenario.m, norm2_y)

    fits = {}  # (source, k_hat) -> metric fields
    out = []
    for method, (source, rule) in zip(methods, pairs):
        post = posts[source]
        if rule == "map":
            k_hat = post.k_map
        elif rule == "aic":
            k_hat = aic_order(basis.eigvals, scenario.m, k_max)
        else:
            k_hat = scenario.k_true
        k = min(k_hat, len(post.log_scores) - 1)
        key = (source, k)
        if key not in fits:
            if source == "pca":
                s, log_ip = post.s[k], post.log_ip[k]
            else:
                angles, rows = peaks[source]
                # Y's split, not the scan's of R, until both agree to the
                # golden bound (ROADMAP item 2); the amplitude fit reads
                # the same factorisation
                s, a0 = projection_stats(y, rows[:k].T)
                log_ip = math.nan
            pv = posterior_variances(ProjectionStats.from_energy(
                s, norm2_y, k, scenario.d, scenario.m), scenario.d, log_ip)
            err = r0 = rs = math.nan  # eigenvector bases carry no DOAs
            if source != "pca":
                err = err_doa(angles[:k], scenario.doa_deg)
                r0, rs = rmse_amplitude(
                    np.stack((a0, (1.0 - pv.tau_mean) * a0)), angles[:k],
                    true_amps, scenario.doa_deg)
            fits[key] = dict(
                err_doa=err, rmse_a0=r0, rmse_a_shrunk=rs,
                rmse_sigma=abs(math.sqrt(pv.sigma2_mean) - sigma_true),
                tau_mean=pv.tau_mean)
        out.append(dict(method=method, k_hat=k_hat, **fits[key]))
    return out


def _run_task(args):
    config, scenario, grid_idx, run_idx = args
    rng = np.random.default_rng([config.master_seed, grid_idx, run_idx])
    rows = run_single(scenario, config.k_max, config.grid_step_deg,
                      config.methods, rng=rng)
    return [
        RunRecord(snr_db=scenario.snr_db, overlap=scenario.overlap,
                  decay=scenario.decay, run=run_idx, **row)
        for row in rows
    ]


# the thread-count variables of OpenBLAS, OpenMP and MKL
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _worker_blas_env():
    """One BLAS thread for the processes started inside; the caller's
    os.environ is restored on exit.  This process's BLAS, loaded with
    numpy, keeps its thread count."""
    saved = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def run_sweep(config: ExperimentConfig, jobs=1):
    """Run the whole sweep; returns records in deterministic task order.

    Every sweep, jobs = 1 too, runs in spawned worker processes, at most
    `jobs`, one per task and one per core.  Spawned workers read the
    environment when they start, so each gets one BLAS thread.  They
    import the caller's __main__, so a script that calls run_sweep needs
    an `if __name__ == "__main__":` guard.  jobs < 1 is a ConfigError.
    """
    if jobs < 1:
        raise ConfigError(f"jobs (--jobs) must be >= 1, got {jobs}")
    tasks = [
        (config, scenario, gi, ri)
        for gi, scenario in enumerate(config.scenarios())
        for ri in range(config.n_runs)
    ]
    with _worker_blas_env(), ProcessPoolExecutor(
            max_workers=min(jobs, len(tasks), os.cpu_count() or 1),
            mp_context=multiprocessing.get_context("spawn")) as pool:
        chunks = list(pool.map(_run_task, tasks, chunksize=8))
    return [rec for chunk in chunks for rec in chunk]


def write_results(records, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_SCHEMA_COMMENT + "\n")
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            fh.write(rec.csv_row() + "\n")


def read_results(path):
    """Records of a write_results CSV; a malformed file is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a UTF-8 text file: {exc}") from exc
    if lines[:2] != [CSV_SCHEMA_COMMENT, CSV_HEADER]:
        raise ConfigError(f"{path}: missing the {CSV_SCHEMA_COMMENT!r} header")
    records = []
    for lineno, line in enumerate(lines[2:], 3):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != len(_CSV_PARSERS):
            raise ConfigError(f"{path}:{lineno}: {len(fields)} fields, "
                              f"want {len(_CSV_PARSERS)}")
        try:
            records.append(RunRecord(*(
                parse(f) for parse, f in zip(_CSV_PARSERS, fields))))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return records


def aggregate(records, k_true=None):
    """Per-(method, snr, overlap, decay) means of every metric column, and
    the share of rows with k_hat == k_true (nan without k_true)."""
    groups = {}
    for rec in records:
        groups.setdefault(
            (rec.method, rec.snr_db, rec.overlap, rec.decay), []
        ).append(rec)
    out = []
    for key in sorted(groups):
        rows = groups[key]
        with warnings.catch_warnings():
            # pca-map rows are all-NaN in the DOA columns; the NaN mean is
            # the intended result, not a condition worth reporting
            warnings.simplefilter("ignore", RuntimeWarning)
            means = {col: float(np.nanmean([getattr(r, col) for r in rows]))
                     for col in METRICS}
        k_hats = np.array([r.k_hat for r in rows])
        means["k_hat_mean"] = float(np.mean(k_hats))
        means["k_correct_rate"] = (
            math.nan if k_true is None else float(np.mean(k_hats == k_true))
        )
        out.append((key, len(rows), means))
    return out


def write_aggregates(records, path, k_true=None):
    agg = aggregate(records, k_true)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_SCHEMA_COMMENT + " (aggregated)\n")
        fh.write(",".join(("method", "snr_db", "overlap", "decay", "n_runs",
                           "k_hat_mean", "k_correct_rate") + METRICS) + "\n")
        for (key, n, means) in agg:
            fh.write(f"{key[0]},{','.join(map(_grid_str, key[1:]))},{n},"
                     f"{means['k_hat_mean']:.6g},{means['k_correct_rate']:.10g},"
                     + ",".join(f"{means[col]:.10g}" for col in METRICS) + "\n")


def emit_curves(records, quantity, out_dir):
    """aggregate()'s mean of one metric versus SNR (k_hat reads k_hat_mean),
    one curve_<quantity>_<method>_overlap<o>_decay<d>.csv per curve."""
    if not records:
        raise ValueError("empty result table")
    valid = ("k_hat",) + METRICS
    if quantity not in valid:
        raise ValueError(f"unknown quantity {quantity!r}; choose from {list(valid)}")
    column = "k_hat_mean" if quantity == "k_hat" else quantity
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    curves = {}
    for (method, snr, overlap, decay), _n, means in aggregate(records):
        curves.setdefault((method, overlap, decay), []).append(
            (snr, means[column]))
    paths = []
    for (method, overlap, decay), points in sorted(curves.items()):
        path = out_dir / (f"curve_{quantity}_{method}_overlap{_grid_str(overlap)}"
                          f"_decay{_grid_str(decay)}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"snr_db,mean_{quantity}\n")
            for snr, mean in points:
                fh.write(f"{_grid_str(snr)},{mean:.10g}\n")
        paths.append(path)
    return paths


def validate_distributions(n_mc=20_000, seed=99):
    """Identity suite for the special-function layer.

    Returns (passed, checks) where checks is a list of
    (name, max_error, tolerance, ok).
    """
    from . import specfun as sf

    checks = []

    # complement identity I_p(n,m) + I_{1-p}(m,n) = 1
    p_grid = np.linspace(0.01, 0.99, 99)
    worst = 0.0
    for n in (1, 2, 3, 5, 8, 13, 21, 34, 64):
        for m in (1, 2, 4, 7, 16, 32, 64):
            ip = sf.reg_inc_beta(p_grid, n, m)
            ipc = sf.reg_inc_beta(1.0 - p_grid, m, n)
            worst = max(worst, float(np.max(np.abs(ip + ipc - 1.0))))
    checks.append(("complement_identity", worst, 1e-12))

    # the negative-binomial sum of the m terms i = 0..m-1 equals I_p(n, m)
    from scipy.special import gammaln as _gl
    from scipy.special import logsumexp

    worst = 0.0
    for (n, m, p) in ((3, 5, 0.4), (8, 2, 0.7), (1, 10, 0.2)):
        i = np.arange(m)
        logt = _gl(n + i) - _gl(i + 1) - _gl(n) + n * np.log(p) + i * np.log1p(-p)
        partial = np.cumsum(np.exp(logt))
        worst = max(worst, float(abs(partial[-1] - sf.reg_inc_beta(p, n, m))))
    checks.append(("negative_binomial_tail", worst, 1e-10))

    # dominance probability versus Monte Carlo
    rng = np.random.default_rng(seed)
    worst = 0.0
    settings = [(n, m, s, t) for n, m in ((1, 1), (2, 3), (3, 5), (5, 2), (8, 8))
                for s, t in ((0.5, 1.0), (2.0, 1.0))]
    for n, m, s, t in settings:
        pair = sf.DominancePair(alpha=n, beta=m, s_x=s, s_y=t)
        freq = sf.dominance_frequency(pair, n_mc, rng)
        ip = sf.prob_dominance(pair)
        se = math.sqrt(max(ip * (1 - ip), 1e-12) / n_mc)
        worst = max(worst, abs(freq - ip) / (3 * se))
    checks.append(("dominance_monte_carlo_3se", worst, 1.0))

    # log_q_sum's cross form I_p / (p q B_p) against the dominance sum Q
    # summed term by term, so the check does not read the kernel it tests:
    # one logsumexp call over (degree pair, q, term i), each pair's terms
    # i >= b padded with -inf
    worst = 0.0
    qs = [1.0 - p for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
    log_qs = np.array([[math.log(q)] for q in qs])
    pairs = [(a, b) for a in (1, 3, 8, 17, 30) for b in (1, 4, 12, 30)]
    terms = np.full((len(pairs), len(qs), max(b for _a, b in pairs)), -np.inf)
    for row, (a, b) in zip(terms, pairs):
        i = np.arange(b)
        row[:, :b] = (_gl(b) + _gl(a + i) - _gl(i + 1)
                      - _gl(a + b) - (b - i) * log_qs)
    direct = logsumexp(terms, axis=-1)
    for (a, b), row in zip(pairs, direct.tolist()):
        for q, d in zip(qs, row):
            log_q, _log_ip = sf.log_q_sum(a, b, q)
            worst = max(worst, abs(math.expm1(log_q - d)))
    checks.append(("dominance_sum_cross_form", worst, 1e-8))

    # pdf normalization and moment/quadrature agreement
    from scipy.integrate import quad

    def _quad(fn):
        return quad(fn, 0, np.inf)[0]

    worst_norm, worst_mom = 0.0, 0.0
    for (a, b, s, t) in ((2, 3, 1.0, 1.0), (1, 4, 0.5, 2.0), (5, 2, 2.0, 1.0)):
        pair = sf.DominancePair(alpha=a, beta=b, s_x=s, s_y=t)
        for family, which in product(("gamma", "invgamma"), ("x", "y")):
            total = _quad(lambda x: sf.double_pdf(x, pair, family, which))
            worst_norm = max(worst_norm, abs(total - 1.0))
            try:
                mom = sf.double_moment(pair, 1, family, which)
            except ValueError:
                continue  # no first inverse moment for shape 1
            mean_q = _quad(lambda x: x * sf.double_pdf(x, pair, family, which))
            worst_mom = max(worst_mom, abs(mom - mean_q) / abs(mean_q))
    checks.append(("pdf_normalization", worst_norm, 1e-6))
    checks.append(("moment_vs_quadrature", worst_mom, 1e-6))

    results = [(name, err, tol, err <= tol) for name, err, tol in checks]
    return all(ok for *_, ok in results), results

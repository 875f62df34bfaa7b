"""Log-domain special functions and the double gamma / double inverse-gamma distributions.

The order-selection machinery scores each candidate subspace dimension by the
probability that a gamma variate (signal-plus-noise energy) dominates an
independent gamma variate (residual energy).  That probability is a regularized
incomplete beta function with integer shapes, which admits a finite
negative-binomial sum evaluated in log domain via log-sum-exp, so large degree
counts (hundreds of thousands) never overflow.

`log_reg_inc_beta` is the only O(beta) sum here.  The order score
(`log_q_sum`), the conditional density `double_pdf` and every moment
`double_moment` of a `DominancePair` are closed forms around it; both take
the same (family, which) selector of the gamma or inverse-gamma pair and
its variate X or Y.  A pair computes its normaliser log I_p once.

`log_reg_inc_beta` reads log Gamma(j) from a grow-only module table instead
of calling `gammaln` per term, and sums the terms with a log-sum-exp
shifted by each row's max, accurate to a few ulps of that max (Blanchard,
Higham & Higham, IMA J. Numer. Anal. 41(4), 2021).  At paper degrees
(n + m ~ 4.1e5) the table holds about 3.3 MB.

`log_reg_inc_beta` computes only a window of its m terms.  Its log-terms
are concave in the index, so a coarse grid of at most 256 of them bounds
the indices within 64 of the max; every term outside lies further below
and adds under 2^-60 relative to the sum.  At paper degrees the window
holds about an eighth of the terms.

`log_reg_inc_beta` runs one path for scalar and array p: a scalar is the
one-row case of an array, with the same terms, window and pairwise sum,
so it carries the same bits as that row.  n log p and log(1 - p) are
taken once per call, for both the grid and the window.  When every p is
interior, 0 < p < 1, every term is finite and the path raises no
floating-point warning, so it enters no `np.errstate` and needs no
fix-up.  Only a call with some p exactly 0 or 1 takes log(0) and
0 * -inf, under `np.errstate`, and then overwrites those rows with the
exact log I_0 = -inf and log I_1 = 0.

The conditional densities take their tail factor from scipy's regularized
incomplete gamma functions, `gammaincc` for X and `gammainc` for Y.  Each
is computed directly, never as one minus the other, so the lower function
keeps its relative accuracy at small x, where 1 - Q(n, x) cancels (DiDonato
& Morris, ACM TOMS 12(4), 1986).  The trade: a density whose tail factor
underflows below ~1e-308 reads 0.

Shapes are restricted to positive integers throughout: the finite-sum
identities rely on Gamma(n) = (n-1)!.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betaln, gammainc, gammaincc, gammaln

__all__ = [
    "DominancePair",
    "reg_inc_beta",
    "log_reg_inc_beta",
    "prob_dominance",
    "log_q_sum",
    "double_pdf",
    "double_moment",
    "dominance_frequency",
]

# gammaln(float(j)) for j = 0 .. len-1; replaced by longer tables only
_LOG_GAMMA = np.empty(0)

# _term_window's grid size and margin.  A term more than 64 below its row
# max is under e^-64 of it, so fewer than 2^32 such terms move the sum by
# under 2^-60 relative; a row that fits in memory has m < 2^32.
_GRID = 256
_MARGIN = 64.0


@dataclass(frozen=True)
class DominancePair:
    """Two independent (inverse-)gamma variates X, Y conditioned on their order.

    alpha/beta are the integer signal/noise degrees, s_x/s_y the rates.
    q is stored as s_y/(s_x+s_y) and p as 1-q so that p + q == 1 exactly;
    log_ip = log I_p(alpha, beta) is the log normaliser Pr[X <= Y].
    """

    alpha: int
    beta: int
    s_x: float
    s_y: float
    p: float = field(init=False)
    q: float = field(init=False)
    log_ip: float = field(init=False)

    def __post_init__(self):
        if int(self.alpha) != self.alpha or self.alpha < 1:
            raise ValueError(f"alpha must be a positive integer, got {self.alpha}")
        if int(self.beta) != self.beta or self.beta < 1:
            raise ValueError(f"beta must be a positive integer, got {self.beta}")
        for name in ("s_x", "s_y"):
            rate = getattr(self, name)
            if not 0 < rate < math.inf:  # False for NaN
                raise ValueError(f"{name} must be finite and positive, got {rate}")
        q = self.s_y / (self.s_x + self.s_y)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", 1.0 - q)
        object.__setattr__(self, "log_ip",
                           log_reg_inc_beta(self.p, self.alpha, self.beta))


def _log_gamma_table(top):
    """The log-gamma table covering j = 0 .. top-1 at least.

    Entry j is gammaln(float(j)) (inf at j = 0).  gammaln is elementwise,
    so a slice carries the same bits as the per-term call it replaces,
    whatever size the table was built at.  A larger top rebuilds the table
    whole, which peaks lower than appending to it.
    """
    global _LOG_GAMMA
    if len(_LOG_GAMMA) < top:
        _LOG_GAMMA = gammaln(np.arange(top, dtype=float))
    return _LOG_GAMMA


def _log_terms(n_log_p, log_q, n, i):
    """log C(n+i-1, i) p^n (1-p)^i for the indices of range i, one row per p.

    n_log_p and log_q are the column vectors n log p and log(1 - p) of the
    rows.  The log binomial coefficient is gammaln(n+i) - gammaln(i+1) -
    gammaln(n) read from the module's log-gamma table.  Every index gets
    the same operands in the same order, whichever range asks for it, so a
    term carries the same bits on a grid, in a window or over the full
    range.  p = 0 or 1 hits log(0) and 0 * -inf: p = 0 gives a row of
    -inf and p = 1 a NaN at i = 0 and -inf after it, which
    log_reg_inc_beta's edge path overwrites with the exact values.
    """
    log_gamma = _log_gamma_table(n + i.stop)
    t = (log_gamma[n + i.start:n + i.stop:i.step]
         - log_gamma[1 + i.start:1 + i.stop:i.step])
    t -= log_gamma[n]
    t = t + n_log_p
    t += np.arange(i.start, i.stop, i.step, dtype=float) * log_q
    return t


def _term_window(n_log_p, log_q, n, m):
    """[lo, hi): the indices of log_reg_inc_beta's sum within _MARGIN of the max.

    Each row of terms is the log of a negative-binomial pmf in i, a concave
    sequence.  The terms on a grid of at most _GRID indices, one every
    `stride`, are the exact terms of the full range.  Let a and b be the
    first and last grid points within _MARGIN of the grid max.  By
    concavity every index up to the grid point before a, or from the grid
    point after b, has a term no larger than that grid point's, which is
    more than _MARGIN below the grid max and so more than _MARGIN below
    the row max.  The rows take the union of their windows.  m <= _GRID,
    or no finite term in any row (every p = 1), gives [0, m).
    """
    stride = -(-m // _GRID)
    if stride == 1:
        return 0, m
    grid = _log_terms(n_log_p, log_q, n, range(0, m, stride))
    near = grid >= grid.max(axis=1, keepdims=True) - _MARGIN
    kept = np.flatnonzero(near.any(axis=0))
    if not kept.size:
        return 0, m
    return (max(int(kept[0] - 1) * stride + 1, 0),
            min(int(kept[-1] + 1) * stride, m))


def _log_sum_window(rows, n, m):
    """log I_p(n, m) of each row of the column vector p, clamped to <= 0,
    and each row's max log-term, from the terms in `_term_window`."""
    n_log_p, log_q = n * np.log(rows), np.log1p(-rows)
    lo, hi = _term_window(n_log_p, log_q, n, m)
    t = _log_terms(n_log_p, log_q, n, range(lo, hi))
    t_max = t.max(axis=1)
    t -= t_max[:, None]
    np.exp(t, out=t)
    return np.minimum(np.log(t.sum(axis=1)) + t_max, 0.0), t_max


def log_reg_inc_beta(p, n, m):
    """log I_p(n,m) for positive integer shapes, via the negative-binomial sum.

    I_p(n,m) = sum_{i=0}^{m-1} C(n+i-1, i) p^n (1-p)^i, a sum of positive
    terms, so the log-sum-exp evaluation keeps full relative accuracy even
    when I_p underflows.  Accepts scalar or array p; a scalar is the
    one-row case of an array.

    Only the terms of `_term_window`, those within _MARGIN = 64 of their
    row's max, are computed and summed; at paper degrees that is about an
    eighth of the m terms.  The log-gamma table grows to n + m entries,
    about 3.3 MB at paper degrees.
    """
    if int(n) != n or n < 1 or int(m) != m or m < 1:
        raise ValueError(f"shapes must be positive integers, got n={n}, m={m}")
    p_arr = np.asarray(p, dtype=float)
    p_min, p_max = (p_arr.min(), p_arr.max()) if p_arr.ndim else (p_arr[()],) * 2
    if not (p_min >= 0 and p_max <= 1):  # False for NaN
        raise ValueError("p must lie in [0, 1]")
    n, m = int(n), int(m)
    rows = p_arr.reshape(-1, 1)
    if 0 < p_min and p_max < 1:
        out = _log_sum_window(rows, n, m)[0]
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            out, t_max = _log_sum_window(rows, n, m)
        # p = 0's row of -inf gives log I_0 = -inf; exact endpoint I_1 = 1
        out[t_max == -np.inf] = -np.inf
        out[rows[:, 0] == 1.0] = 0.0
    if p_arr.ndim == 0:
        return float(out[0])
    return out.reshape(p_arr.shape)


def reg_inc_beta(p, n, m):
    """Regularized incomplete beta I_p(n,m) for positive integer shapes."""
    return np.exp(log_reg_inc_beta(p, n, m))


def prob_dominance(pair: DominancePair):
    """Pr[X <= Y] for the independent gamma pair (= Pr[X >= Y] inverse-gamma)."""
    return math.exp(pair.log_ip)


def log_q_sum(alpha, beta, q):
    """log of the finite dominance sum used by the order scores, and the
    log I_p(alpha, beta) it was computed from, as (log Q, log I_p).

    Q = sum_{i=0}^{beta-1} Gamma(beta) Gamma(alpha+i) / (i! Gamma(alpha+beta))
        * q^-(beta-i)
      = I_p(alpha,beta) / (p * q * B_p(alpha,beta)),   p = 1 - q,
    evaluated through the second (cross) form as
    log I_p - alpha log p - beta log q + log B(alpha,beta): one kernel call.
    Both degrees must be positive, as in a `DominancePair`; the empty
    subspace (alpha = 0) is scored by the order scan itself.  The posterior
    at a scored order reuses the log I_p handed back.

    The computed log I_p is at most 0.0, so `_log_q_from(0.0, ...)`, the
    same arithmetic without the kernel, bounds the result from above bit
    for bit: each IEEE operation rounds monotonically in its left operand.
    """
    if int(alpha) != alpha or alpha < 1 or int(beta) != beta or beta < 1:
        raise ValueError(f"bad degrees alpha={alpha}, beta={beta}")
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    alpha, beta = int(alpha), int(beta)
    log_ip = log_reg_inc_beta(1.0 - q, alpha, beta)
    return _log_q_from(log_ip, alpha, beta, q), log_ip


def _log_q_from(log_ip, alpha, beta, q):
    """log_q_sum's closed form around a given log I_p, in its operation order."""
    p = 1.0 - q
    return (log_ip - alpha * math.log(p) - beta * math.log(q)
            + float(betaln(alpha, beta)))


def _log_gamma_pdf(x, n, s):
    return n * math.log(s) + (n - 1) * math.log(x) - s * x - math.lgamma(n)


def _check_selector(family, which):
    if family not in ("gamma", "invgamma"):
        raise ValueError(f"family must be 'gamma' or 'invgamma', got {family!r}")
    if which not in ("x", "y"):
        raise ValueError(f"which must be 'x' or 'y', got {which!r}")


def double_pdf(x, pair: DominancePair, family, which):
    """Density of X or Y in a pair conditioned on its order.

    family='gamma' conditions the gamma pair on X <= Y; 'invgamma' the
    inverse-gamma pair on X >= Y.  which='x' or 'y' picks the variate.
    Inverse-gamma X is 1/(gamma X) and the order flips with it, so its
    density is the gamma density of the same variate at 1/x times the
    Jacobian 1/x^2.  At x = inf both densities read 0, their limit.

    The gamma density of the variate is multiplied by the other's tail
    probability at x, scipy's gammaincc (X) or gammainc (Y).  Where that
    factor underflows below ~1e-308 the density reads 0.
    """
    _check_selector(family, which)
    if not x > 0:
        raise ValueError(f"x must be positive, got {x}")
    # at x = inf the gamma density's log reads inf - inf and the
    # inverse-gamma one would read it at 1/x = 0; both densities are 0
    if x == math.inf:
        return 0.0
    if family == "invgamma":
        return double_pdf(1.0 / x, pair, "gamma", which) / x / x
    a, b, sx, sy = pair.alpha, pair.beta, pair.s_x, pair.s_y
    if which == "x":  # X <= Y: Y's upper tail beyond x
        tail, shape, rate = gammaincc(b, sy * x), a, sx
    else:             # X <= Y: X's lower tail below x
        tail, shape, rate = gammainc(a, sx * x), b, sy
    if tail == 0:
        return 0.0
    return math.exp(math.log(tail) + _log_gamma_pdf(x, shape, rate) - pair.log_ip)


def double_moment(pair: DominancePair, k, family, which):
    """Closed-form k-th moment of the double (inverse-)gamma marginals.

    With (shape, rate) the parameters of the chosen variate, each moment is
    the plain moment Gamma(shape+-k)/Gamma(shape) * rate^-+k times
    I_p(shifted shapes) / I_p(alpha, beta), where family 'gamma' shifts the
    shape by +k and 'invgamma' by -k.  Inverse-gamma moments require
    shape - k >= 1.
    """
    if int(k) != k or k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    _check_selector(family, which)
    k, a, b = int(k), pair.alpha, pair.beta
    name, shape, rate = ("alpha", a, pair.s_x) if which == "x" else ("beta", b, pair.s_y)
    shifted = shape + k if family == "gamma" else shape - k
    if shifted < 1:
        raise ValueError(f"{name} - k must be >= 1, got {name}={shape}, k={k}")
    # Gamma(max)/Gamma(min) of the two shapes, an exact product of k integers
    ratio = math.prod(range(min(shape, shifted), max(shape, shifted)))
    plain = ratio / rate**k if family == "gamma" else rate**k / ratio
    a_k, b_k = (shifted, b) if which == "x" else (a, shifted)
    return plain * math.exp(log_reg_inc_beta(pair.p, a_k, b_k) - pair.log_ip)


def dominance_frequency(pair: DominancePair, n, rng):
    """Empirical Pr[X <= Y] over n independent draws (Monte Carlo oracle)."""
    x = rng.gamma(pair.alpha, 1.0 / pair.s_x, size=n)
    y = rng.gamma(pair.beta, 1.0 / pair.s_y, size=n)
    return float(np.mean(x <= y))

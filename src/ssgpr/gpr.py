"""Gaussian process regression: plaintext oracle and the shared pipeline.

The plaintext functions are the accuracy reference; the pp_* functions
run the same model on secret shares through the interactive protocols.
Hyperparameters are public configuration on both compute servers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .protocols import (MAX_EXP_SCALE, ExpParams, ModelOperand, _rescale, mirror_upper,
                        open_model_masks, pp_exp, pp_matinv, ss_dist, ss_matmul, ss_mul,
                        ss_sqrt)
from .ring import ring_add
from .session import PartyRuntime
from .sharing import SharedArray

SQUARED_EXPONENTIAL = "se"
MATERN32 = "matern32"


@dataclass(frozen=True)
class KernelConfig:
    kind: str = SQUARED_EXPONENTIAL
    length_scale: float = 1.0
    signal_variance: float = 1.0
    noise_variance: float = 0.1

    def __post_init__(self):
        if self.kind not in (SQUARED_EXPONENTIAL, MATERN32):
            raise ValueError(f"unknown kernel {self.kind!r}")
        if min(self.length_scale, self.signal_variance, self.noise_variance) <= 0:
            raise ValueError("kernel hyperparameters must be strictly positive")
        if self.signal_variance >= MAX_EXP_SCALE:
            raise ValueError(f"signal_variance must be below 2^50, got {self.signal_variance!r}")

    @property
    def pivot_domain(self) -> tuple[float, float]:
        """Public bounds on the LDL pivots of K + noise_variance*I."""
        return (self.noise_variance / 2.0,
                2.0 * (self.signal_variance + self.noise_variance))


def kernel_from_sqdist(d, config: KernelConfig):
    """Kernel value as a function of the squared Euclidean distance."""
    d = np.asarray(d, dtype=np.float64)
    if config.kind == SQUARED_EXPONENTIAL:
        return config.signal_variance * np.exp(-d / (2.0 * config.length_scale ** 2))
    s = np.sqrt(3.0 * d) / config.length_scale
    return config.signal_variance * (1.0 + s) * np.exp(-s)


def kernel_plaintext(x, xp, config: KernelConfig) -> float:
    d = float(np.sum((np.asarray(x, dtype=np.float64) - np.asarray(xp)) ** 2))
    return float(kernel_from_sqdist(d, config))


def sqdist_matrix(x, xp) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    xp = np.atleast_2d(np.asarray(xp, dtype=np.float64))
    d = (x ** 2).sum(1)[:, None] + (xp ** 2).sum(1)[None, :] - 2.0 * x @ xp.T
    return np.maximum(d, 0.0)


def kernel_matrix_plaintext(x, xp, config: KernelConfig) -> np.ndarray:
    return kernel_from_sqdist(sqdist_matrix(x, xp), config)


@dataclass
class Predictions:
    mean: np.ndarray
    variance: np.ndarray


def gpr_predict_plaintext(x, y, x_star, config: KernelConfig) -> Predictions:
    """Exact posterior mean and variance, the oracle for every loss metric."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    x_star = np.atleast_2d(np.asarray(x_star, dtype=np.float64))
    k = kernel_matrix_plaintext(x, x, config)
    a = k + config.noise_variance * np.eye(len(y))
    k_star = kernel_matrix_plaintext(x_star, x, config)
    sol = np.linalg.solve(a, y)
    mean = k_star @ sol
    var = config.signal_variance - np.sum(k_star * np.linalg.solve(a, k_star.T).T, axis=1)
    return Predictions(mean=mean, variance=var)


def loss_metrics(oracle: Predictions, pp: Predictions):
    """Mean relative differences of mean and variance predictions.

    Test points whose oracle value is exactly zero are excluded from the
    corresponding average; the exclusion counts are reported.
    """
    def rel(a, b):
        a = np.asarray(a, dtype=np.float64).reshape(-1)
        b = np.asarray(b, dtype=np.float64).reshape(-1)
        keep = a != 0.0
        if not np.any(keep):
            return float("nan"), int((~keep).sum())
        return float(np.mean(np.abs(b[keep] - a[keep]) / np.abs(a[keep]))), int((~keep).sum())

    loss_mu, skipped_mu = rel(oracle.mean, pp.mean)
    loss_var, skipped_var = rel(oracle.variance, pp.variance)
    return {"loss_mu": loss_mu, "loss_var": loss_var,
            "excluded_mu": skipped_mu, "excluded_var": skipped_var}


@dataclass
class GprModelShares:
    """One party's model state after the construction stage.

    ``x_norms`` holds the training rows' squared norms at the raw double
    scale, ``alpha`` is Inv @ y, and ``Xt`` and ``R`` = [Inv | alpha] are
    opened once against model masks the assistant keeps, so a prediction
    batch opens only its own operands.
    """

    X: SharedArray
    y: SharedArray
    K: SharedArray
    Inv: SharedArray
    config: KernelConfig
    x_norms: SharedArray
    alpha: SharedArray
    Xt: ModelOperand
    R: ModelOperand
    y_shift: float = 0.0


def pp_kernel(rt: PartyRuntime, dist: SharedArray, config: KernelConfig,
              exp_params: ExpParams, policy: str = "clamp") -> SharedArray:
    """Kernel values from shares of squared distances.

    The signal variance rides in pp_exp's public factor, so it costs no
    truncation. The exponent mask, and on Matern the product's triple,
    ride on the truncation just before pp_exp.
    """
    plan = [("exp_mask", (dist.shape, exp_params.rmax_enc(rt.codec.lf)))]
    if config.kind == SQUARED_EXPONENTIAL:
        rt.assistant.deal(plan)
        arg = _rescale(rt, dist.scale_public(-1.0 / (2.0 * config.length_scale ** 2)))
        return pp_exp(rt, arg, exp_params, policy=policy, scale=config.signal_variance)
    s = ss_sqrt(rt, dist.scale_int(3))
    rt.assistant.deal(plan + [("triple", dist.shape)])
    w = _rescale(rt, s.scale_public(1.0 / config.length_scale))
    e = pp_exp(rt, -w, exp_params, policy=policy, scale=config.signal_variance)
    return ss_mul(rt, w.add_public(1.0), e)


def pp_gpr_construct(rt: PartyRuntime, x: SharedArray, y: SharedArray,
                     config: KernelConfig, exp_params: ExpParams,
                     policy: str = "clamp", y_shift: float = 0.0) -> GprModelShares:
    """Model construction: gram matrix, the shared inverse and the kept model.

    The kernel runs on the gram's strict upper triangle only, the self
    form of ``ss_dist``, so its square root, exponentiation and
    truncations carry n(n-1)/2 elements rather than n^2; ``mirror_upper``
    copies it below the diagonal, so K's shares are exactly symmetric.
    The diagonal is k(x, x) = signal_variance by stationarity, a public
    value; writing it directly sidesteps the square root's zero-distance
    edge case on the Matern path. The triangle's temporaries die before
    the inversion.

    The model is then finished for prediction: alpha = Inv @ y in one
    product, and R = [Inv | alpha] and X^T opened against two model masks
    in one exchange. Peer rounds: the inversion's (10n at the defaults,
    22n - 6 on the paper's path) plus 4 on SE (ss_dist, pp_exp, alpha,
    the opening) and plus 2k + 6 on Matern-3/2, with k the square root's
    Newton steps, derived from sqrt_hi (``protocols.sqrt_steps``: 13 at
    16, 17 at 432); assistant round trips the inversion's (11n + 1, or
    23n - 4) plus 5 and plus 2k + 8 (``analysis.construct_rounds`` and
    ``analysis.construct_assistant_round_trips``). alpha's request carries
    both model masks.
    """
    n, dim = x.shape
    upper, x_norms = ss_dist(rt, x)
    k = mirror_upper(rt, pp_kernel(rt, upper, config, exp_params, policy), n,
                     config.signal_variance)
    idx = np.arange(n)
    m = k.copy()
    if rt.party == 0:
        m.values[idx, idx] = ring_add(m.values[idx, idx],
                                      rt.codec.encode(config.noise_variance), rt.params)
    inv = pp_matinv(rt, m, pivot_domain=config.pivot_domain)
    r_key, x_key = rt.assistant.new_key(), rt.assistant.new_key()
    rt.assistant.deal([("matrix", (n, n, 1)), ("model_mask", (r_key, n, n + 1, 0)),
                       ("model_mask", (x_key, dim, n, 0))])
    alpha = ss_matmul(rt, inv, y.reshape(-1, 1))
    r = SharedArray(rt.party, np.hstack([inv.values, alpha.values]), inv.codec, inv.scale)
    r_model, xt_model = open_model_masks(rt, [(r_key, r), (x_key, x.T)])
    return GprModelShares(X=x, y=y, K=k, Inv=inv, config=config, x_norms=x_norms,
                          alpha=alpha.reshape(-1), Xt=xt_model, R=r_model, y_shift=y_shift)


def pp_gpr_predict(rt: PartyRuntime, model: GprModelShares, x_star: SharedArray,
                   exp_params: ExpParams, policy: str = "clamp"):
    """Prediction stage: shares of posterior means and variances.

    On SE a batch takes four peer rounds: ss_dist's one opening of
    x* - A, pp_exp, one product k* @ [Inv | alpha] that gives w and the
    mean, and the variance's product w * k*. Matern-3/2 adds the square
    root's 2k + 1 rounds and one product, 2k + 6 in all, with k derived
    from sqrt_hi (``protocols.sqrt_steps``). Assistant round trips: 7 on
    SE and 2k + 10 on Matern (``analysis.predict_rounds`` and
    ``analysis.predict_assistant_round_trips``). The kernel's material
    rides on its truncation before pp_exp; each of the three products
    fetches its triple alone, so no reply holds two batch-sized items.
    """
    config = model.config
    n = model.X.shape[0]
    d_star = ss_dist(rt, x_star, model.Xt, model.x_norms)
    k_star = pp_kernel(rt, d_star, config, exp_params, policy)
    w_mean = ss_matmul(rt, k_star, model.R)
    w = w_mean[:, :n]
    mean = w_mean[:, n]
    if model.y_shift:
        mean = mean.add_public(np.full(mean.shape, model.y_shift))

    quad_raw = ss_mul(rt, w, k_star, truncate=False)
    quad = _rescale(rt, SharedArray(rt.party, quad_raw.values.sum(axis=1, dtype=np.uint64),
                                    quad_raw.codec, quad_raw.scale))
    # k(x*, x*) = signal_variance is public, so the prior term of the
    # variance needs no protocol work.
    var = (-quad).add_public(config.signal_variance)
    return mean, var

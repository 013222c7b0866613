"""Executable checks of the protocol's analytical claims.

Parameter validation for the masked exponentiation, exact enumeration of
its information leakage, and the closed-form communication-round counts
of the matrix-inversion pipeline, the square root, GP model construction
and a prediction batch, peer rounds and assistant round trips, and the
inversion's online words. The counts take the session's
``DivisionConfig`` path (``matinv``) and the reciprocal steps, which fix
the division budget R_div; left out, the steps are
``protocols.division_steps`` of the default kernel's pivot domain at the
default l_f, 7 on "ldl" and 8 on "paper". The Matern-3/2 counts also
take the square root's Newton steps (``root_steps``); left out, they are
``protocols.sqrt_steps`` of ``div.sqrt_hi`` on the default ring, 13 at
the default sqrt_hi of 16.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .gpr import MATERN32, SQUARED_EXPONENTIAL, KernelConfig
from .protocols import ExpParams, division_steps, reciprocal_steps, sqrt_steps
from .ring import RingParams
from .session import DivisionConfig

# Truncated product rounds of a "paper" LDL column's two sums, the pivot's
# and the column update's (protocols.pp_cholesky_ldl).
_PAPER_COLUMN_PRODUCTS = 4


@dataclass(frozen=True)
class ExpParamReport:
    """Outcome of the correctness-bound check for exponentiation params.

    The masks and inputs stay representable iff
    (r_max - u_min) * log2(e) <= l_f < (l - 1) / 2.
    ``precision_slack_bits`` is l_f minus the left-hand side;
    ``overflow_slack_bits`` is (l-1)/2 minus l_f. Both must be
    non-negative to accept, and the input range [u_min, 0] and the mask
    range [-r_max, r_max) must be non-empty; together these keep the
    public factor e^d * 2^(2 l_f) below 2^(2 l_f + 32).
    """

    accepted: bool
    precision_slack_bits: float
    overflow_slack_bits: float
    required_lf: float


def validate_exp_params(params: ExpParams, ring: RingParams) -> ExpParamReport:
    required = (params.r_max - params.u_min) * math.log2(math.e)
    precision_slack = ring.lf - required
    overflow_slack = (ring.l - 1) / 2 - ring.lf
    return ExpParamReport(
        accepted=(precision_slack >= 0 and overflow_slack > 0
                  and params.u_min <= 0 < params.r_max),
        precision_slack_bits=precision_slack,
        overflow_slack_bits=overflow_slack,
        required_lf=required,
    )


@dataclass(frozen=True)
class LeakageReport:
    """Exact leakage statistics of the masked opening d = u + r.

    ``m_u`` and ``m_r`` are the grid cardinalities of the input and mask
    ranges. The degree of leakage after observing d is 1/|support of u|;
    a run is "secure" when the support is the full input range.
    """

    m_u: int
    m_r: int
    p_secure: Fraction
    expected_leakage: Fraction
    p_exact_exposure: Fraction
    enumerated_p_secure: Fraction
    enumerated_expected_leakage: Fraction
    enumerated_p_exact_exposure: Fraction

    @property
    def matches_closed_form(self) -> bool:
        return (self.p_secure == self.enumerated_p_secure
                and self.expected_leakage == self.enumerated_expected_leakage
                and self.p_exact_exposure == self.enumerated_p_exact_exposure)


def leakage_enumerate(m_u: int, m_r: int) -> LeakageReport:
    """Enumerate uniform (u, r) on aligned integer grids and measure leakage.

    For every observable d = u + r the adversary's posterior support of u
    is {max(0, d - m_r + 1) .. min(m_u - 1, d)}; the degree of leakage is
    the reciprocal support size. Exact rational arithmetic throughout.
    """
    if m_u < 1 or m_r < 1:
        raise ValueError("grid cardinalities must be positive")
    if m_u > m_r:
        raise ValueError("unsupported regime: m_u must not exceed m_r")
    if m_u > 10 ** 4 or m_r > 10 ** 4:
        raise ValueError("grids too large to enumerate")

    total = m_u * m_r
    secure = 0
    leakage = Fraction(0)
    exact = 0
    for d in range(m_u + m_r - 1):
        lo = max(0, d - m_r + 1)
        hi = min(m_u - 1, d)
        support = hi - lo + 1
        count = support  # pairs (u, r) with u + r = d
        if support == m_u:
            secure += count
        if support == 1:
            exact += count
        leakage += Fraction(count, total) * Fraction(1, support)

    closed_secure = Fraction(m_r - m_u + 1, m_r)
    closed_leakage = Fraction(m_u + m_r - 1, m_u * m_r)
    closed_exact = Fraction(2, m_u * m_r) if m_u > 1 else Fraction(1)
    return LeakageReport(
        m_u=m_u, m_r=m_r,
        p_secure=closed_secure,
        expected_leakage=closed_leakage,
        p_exact_exposure=closed_exact,
        enumerated_p_secure=Fraction(secure, total),
        enumerated_expected_leakage=leakage,
        enumerated_p_exact_exposure=Fraction(exact, total),
    )


def _steps(div: DivisionConfig, steps: int | None) -> int:
    """``steps``, or left out, the default kernel's pivot-domain steps on ``div``'s path."""
    if steps is None:
        return division_steps(KernelConfig().pivot_domain, RingParams().lf, div.matinv)
    return steps


def _root_steps(div: DivisionConfig, root_steps: int | None) -> int:
    """``root_steps``, or left out, the square root's steps on ``div.sqrt_hi``."""
    if root_steps is None:
        return sqrt_steps(div.sqrt_hi, RingParams())
    return root_steps


def _division_rounds(div: DivisionConfig, steps: int | None) -> int:
    """R_div, one division's rounds (reciprocal plus one multiply) at ``steps``."""
    steps = _steps(div, steps)
    return 2 * steps + 1 if div.matinv == "paper" else steps + 3


def expected_rounds(protocol: str, n: int = 0, div: DivisionConfig = DivisionConfig(),
                    steps: int | None = None) -> int:
    """Closed-form communication-round counts per protocol, at ``steps`` reciprocal steps.

    On the default "ldl" path, Cholesky is one pass that also yields the
    inverse's factors: column 0 takes its reciprocal's K + 2 rounds and
    every later column one product round more, R_div n - 1 with
    R_div = K + 3 at K reciprocal steps. The inversion adds the final
    product, R_div n: 10n at 7 steps. On "paper", Cholesky takes
    R_div + (n-2)(4 + R_div) + 2, forward n-1 and backward R_div + 1, and
    the inversion is their sum, 22n - 6 at 8 steps, R_div = 17. Forward and
    backward alone cost the same on either path. The masked
    exponentiation is always a single round.
    """
    name = protocol.lower().replace("-", "").replace("_", "")
    if name in ("ppexp", "exp"):
        return 1
    if n < 2:
        raise ValueError("matrix protocols need n >= 2")
    r_div = _division_rounds(div, steps)
    if div.matinv == "paper":
        cholesky = r_div + (n - 2) * (_PAPER_COLUMN_PRODUCTS + r_div) + 2
        matinv = cholesky + (n - 1) + (r_div + 1)
    else:
        cholesky = r_div * n - 1
        matinv = cholesky + 1
    if name == "cholesky":
        return cholesky
    if name == "forward":
        return n - 1
    if name == "backward":
        return r_div + 1
    if name in ("ppmi", "matinv"):
        return matinv
    raise ValueError(f"unknown protocol {protocol!r}")


def matinv_assistant_round_trips(n: int, div: DivisionConfig = DivisionConfig(),
                                 steps: int | None = None) -> int:
    """Closed-form assistant round trips of one LDL matrix inversion at ``steps``.

    Truncations: every truncated product round and every affine
    reciprocal start is one, so a reciprocal costs R_div and a division
    R_div + 1. On "ldl" a column truncates once for its product round
    (but column 0), once for the first guess and once per reciprocal
    round, R_div + 1 in all, and the final product's (n, n, n) triple is
    the one request for material alone: (R_div + 1)n + 1, 11n + 1 at
    7 steps, R_div = 10. On "paper", Cholesky makes
    (R_div + 1) + (n-2)(R_div + 5) + 2, forward n-1 and backward
    R_div + 2, and two requests carry material alone, the first forward
    row's and backward's last product's: 23n - 4 at 8 steps, R_div = 17.
    All other material is dealt one step ahead and rides on a truncation.
    """
    if n < 2:
        raise ValueError("matrix protocols need n >= 2")
    r_div = _division_rounds(div, steps)
    if div.matinv != "paper":
        return (r_div + 1) * n + 1
    column = r_div + 1 + _PAPER_COLUMN_PRODUCTS
    truncations = (r_div + 1) + (n - 2) * column + 2 + (n - 1) + (r_div + 2)
    return truncations + 2


def matinv_online_words(n: int, div: DivisionConfig = DivisionConfig(),
                        steps: int | None = None) -> int:
    """Closed-form online words each server sends in one matrix inversion at ``steps``.

    A Beaver product opens both operands, a product by a kept mask only
    what is not open yet. On "ldl" each column's reciprocal of its pivot
    at K steps sends 2 words for the first residual, 4K - 6 for the
    Goldschmidt steps (none at K = 1) and 4n for the Newton close, which
    carries the n - 1 numerators. Every word of L, C and V opens once:
    column k >= 1 opens L[k:n, k-1], C[k:n, k-1] and V[k-1, :k-1], and the
    final product W^T - A (n^2) with V's last row (n - 1). That is
    n(4n + 24) + n(n - 1) + (n - 1)(n - 2)/2 + (n - 1) + n^2 at 7 steps,
    264,500 at n = 200. On "paper" every product opens both operands
    afresh: Cholesky's column k < n - 1 sends 7k + (n - k - 1)k for its
    four products and 4K + 2(n - k - 1) for its division (column 0 only
    the division, 4K + 2n, and the last column 4(n - 1)), the forward
    rows k + k^2 each and backward 4Kn + 4n^2, so its words grow as n^3.
    """
    if n < 2:
        raise ValueError("matrix protocols need n >= 2")
    k_steps = _steps(div, steps)
    if div.matinv != "paper":
        reciprocal = 2 + max(0, 4 * k_steps - 6) + 4 * n
        return (n * reciprocal + n * (n - 1) + (n - 1) * (n - 2) // 2 + (n - 1) + n * n)

    def division(rows):  # a column of ``rows`` words over one pivot
        return 4 * k_steps + 2 * rows

    cholesky = (division(n) + 4 * (n - 1)
                + sum(7 * k + (n - k - 1) * k + division(n - k - 1) for k in range(1, n - 1)))
    forward = sum(k + k * k for k in range(1, n))
    backward = 4 * k_steps * n + 4 * n * n
    return cholesky + forward + backward


def sqrt_rounds(steps: int) -> int:
    """Peer rounds of one ss_sqrt: two per Newton step plus the final product."""
    return 2 * steps + 1


def sqrt_assistant_round_trips(steps: int) -> int:
    """Closed-form assistant round trips of one ss_sqrt, at any input size.

    Truncations: the first guess, two per Newton step and the final
    product, 2 * steps + 2. Every triple rides on one of them.
    """
    return 2 * steps + 2


def _kernel_rounds(kind: str, div: DivisionConfig, root_steps: int | None) -> int:
    """Peer rounds of one kernel evaluation: pp_exp, and on Matern the
    square root and the product (1 + s) e^-s."""
    if kind == SQUARED_EXPONENTIAL:
        return 1
    if kind == MATERN32:
        return sqrt_rounds(_root_steps(div, root_steps)) + 2
    raise ValueError(f"unknown kernel {kind!r}")


def construct_rounds(kind: str, n: int, div: DivisionConfig = DivisionConfig(),
                     steps: int | None = None, root_steps: int | None = None) -> int:
    """Peer rounds of pp_gpr_construct, its inversion at ``steps`` reciprocal steps.

    ss_dist's self form, the kernel, the inversion, alpha = Inv @ y and
    the one opening of both model masks: the inversion's rounds + 4 on SE
    and + 2k + 6 on Matern-3/2 at k = ``root_steps`` square-root steps,
    so 10n + 4 on SE at the defaults and 22n - 2 on "paper".
    """
    return (1 + _kernel_rounds(kind, div, root_steps)
            + expected_rounds("matinv", n, div, steps) + 2)


def predict_rounds(kind: str, div: DivisionConfig = DivisionConfig(),
                   root_steps: int | None = None) -> int:
    """Peer rounds of one pp_gpr_predict batch, at any batch and model size.

    ss_dist's one opening, the kernel, k* @ [Inv | alpha] and the
    variance's product: 4 on SE and 2k + 6 on Matern-3/2 at k =
    ``root_steps``.
    """
    return 1 + _kernel_rounds(kind, div, root_steps) + 2


def _kernel_assistant_round_trips(kind: str, div: DivisionConfig,
                                  root_steps: int | None) -> int:
    """Truncations of one kernel evaluation; its material rides on the last.

    SE: the scaled argument. Matern: the square root, the scaled root and
    the product.
    """
    if kind == SQUARED_EXPONENTIAL:
        return 1
    if kind == MATERN32:
        return sqrt_assistant_round_trips(_root_steps(div, root_steps)) + 2
    raise ValueError(f"unknown kernel {kind!r}")


def construct_assistant_round_trips(kind: str, n: int,
                                    div: DivisionConfig = DivisionConfig(),
                                    steps: int | None = None,
                                    root_steps: int | None = None) -> int:
    """Assistant round trips of pp_gpr_construct, its inversion at ``steps``.

    ss_dist's triple alone and its truncation, the kernel's truncations,
    the inversion, and alpha's request, which carries both model masks,
    with its truncation: the inversion's + 5 on SE and + 2k + 8 on
    Matern-3/2 at k = ``root_steps``. At the defaults that is 11n + 6 on
    SE and 11n + 2k + 9 on Matern-3/2; on "paper", 23n + 1 and
    23n + 2k + 4.
    """
    return (2 + _kernel_assistant_round_trips(kind, div, root_steps)
            + matinv_assistant_round_trips(n, div, steps) + 2)


def predict_assistant_round_trips(kind: str, div: DivisionConfig = DivisionConfig(),
                                  root_steps: int | None = None) -> int:
    """Assistant round trips of one pp_gpr_predict batch.

    Three products each fetch their triple alone (ss_dist's kept triple,
    k* @ [Inv | alpha]'s and the variance's) and truncate once, and the
    kernel's material rides on its truncations: 7 on SE and 2k + 10 on
    Matern-3/2 at k = ``root_steps``.
    """
    return 6 + _kernel_assistant_round_trips(kind, div, root_steps)

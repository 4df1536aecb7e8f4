"""Error propagation into quantity covariances, Z-scores and P-values.

At the stationary point of the per-histogram extended likelihood the
quantity estimates are implicit functions of the counts. With

    A_kl = sum_c p_k(c) p_l(c) H(c) / M(c)^2   (negative Hessian)
    B_kl = sum_c p_k(c) p_l(c) sigma2_H(c) / M(c)^2,  sigma2_H = H

the propagated covariance is C = chi2 * A^-1 B A^-1 = chi2 * A^-1, a
pseudo-inverse when A is singular. Components pinned at the non-negativity
boundary are dropped from the inversion and reported with zero variance and
a constrained flag.

P-values come from the standard normal CDF, ported from the Cephes Math
Library (S. L. Moshier, *Methods and Programs for Mathematical Functions*,
1989; ndtr.c, polevl.c) to Python floats, so scoring needs no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError, EmptyInputError, ParameterError
from .model import LpmModel, fit_quantities, model_expectation
from .selection import GoodnessOfFit, chi2_statistic

_ACTIVE_FRACTION = 1e-8  # of total quantity; below this q_k counts as zero


@dataclass
class QuantityCovariance:
    matrix: np.ndarray  # (K, K) symmetric PSD
    constrained: np.ndarray = None  # bool per component, True = pinned at 0
    pseudo_inverse_used: bool = False


@dataclass
class ResponseResult:
    tumor_id: str
    q_treatment_total: float
    sigma_treatment: float
    effect_fraction: float
    effect_fraction_sigma: float
    z: float
    p_two_tailed: float


@dataclass
class CohortSummary:
    combined_z: float
    combined_p: float


# Cephes ndtr.c rational approximations, highest degree first: erfc(x) =
# exp(-x^2) P(x)/Q(x) for 1 <= x < 8 and exp(-x^2) R(x)/S(x) beyond;
# erf(x) = x T(x^2)/U(x^2) for |x| <= 1. Q, S and U have an implicit
# leading 1.
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
           7.46321056442269912687E0, 4.86371970985681366614E1,
           1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3,
           5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1,
           3.54937778887819891062E2, 9.75708501743205489753E2,
           1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
           5.01905042251180477414E0, 6.16021097993053585195E0,
           7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (2.26052863220117276590E0, 9.39603524938001434673E0,
           1.20489539808096656605E1, 1.70814450747565897222E1,
           9.60896809063285878198E0, 3.36907645100081516050E0)
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)
_MAXLOG = 7.09782712893383996843E2  # log(2**1024), Cephes' underflow cut for exp(-x*x)
_SQRTH = 7.07106781186547524401E-1  # sqrt(1/2)


def _polevl(x: float, coef) -> float:
    """Horner evaluation of coef[0] x^N + ... + coef[N] (Cephes polevl)."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef) -> float:
    """As _polevl with an implicit leading coefficient 1 (Cephes p1evl)."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def erf(x: float) -> float:
    """Error function, Cephes erf; negative x as -erf(-x), as scipy's copy does."""
    if math.isnan(x):
        return math.nan
    if x < 0.0:
        return -erf(-x)
    if x > 1.0:
        return 1.0 - erfc(x)
    z = x * x
    return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)


def erfc(a: float) -> float:
    """Complementary error function, Cephes erfc.

    math.exp is the C library's exp, as in the compiled Cephes code, so the
    result carries the same bits as scipy.special.erfc.
    """
    if math.isnan(a):
        return math.nan
    x = abs(a)
    if x < 1.0:
        return 1.0 - erf(a)
    z = -a * a
    if z >= -_MAXLOG:
        z = math.exp(z)
        if x < 8.0:
            y = z * _polevl(x, _ERFC_P) / _p1evl(x, _ERFC_Q)
        else:
            y = z * _polevl(x, _ERFC_R) / _p1evl(x, _ERFC_S)
        if a < 0:
            y = 2.0 - y
        if y != 0.0:
            return y
    return 2.0 if a < 0 else 0.0  # underflow


def ndtr(a: float) -> float:
    """Standard normal CDF, Cephes ndtr: bitwise equal to scipy.special.ndtr."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRTH
    z = abs(x)
    if z < _SQRTH:
        return 0.5 + 0.5 * erf(x)
    y = 0.5 * erfc(z)
    return 1.0 - y if x > 0 else y


def two_tailed_p(z: float) -> float:
    """2 * norm.sf(|z|), capped at 1; scipy.stats computes norm.sf(x) as ndtr(-x)."""
    return min(1.0, 2.0 * ndtr(-abs(float(z))))


def quantity_covariance(model: LpmModel, h, q, chi2: GoodnessOfFit) -> QuantityCovariance:
    """Per-cell Poisson errors propagated into the quantity covariance, scaled
    by chi2.chi2_per_dof (a unit chi2/dof leaves A^-1 unscaled)."""
    q = np.asarray(q, dtype=float)
    K = model.n_components
    P = model.P
    H = h.counts.reshape(-1).astype(float)
    M = P @ q
    if np.any((H > 0) & (M <= 0)):
        raise AnalysisError("model expectation is zero on a populated cell")
    active = q > _ACTIVE_FRACTION * max(q.sum(), 1.0)
    constrained = ~active
    C = np.zeros((K, K))
    pinv_used = False
    if active.any():
        Pa = P[:, active]
        mask = M > np.sqrt(np.finfo(float).tiny)  # M**2 must not underflow
        W = H[mask] / M[mask] ** 2
        A = Pa[mask].T @ (Pa[mask] * W[:, None])
        # B = A, so A^-1 B A^-1 = A^-1, formed as L^-T L^-1 from A = L L^T:
        # a Gram matrix stays PSD however ill-conditioned A is
        try:
            Linv = np.linalg.inv(np.linalg.cholesky(A))
            Ca = Linv.T @ Linv
        except np.linalg.LinAlgError:  # A singular to working precision
            Ca = np.linalg.pinv(A, hermitian=True)
            pinv_used = True
        Ca = chi2.chi2_per_dof * Ca
        Ca = 0.5 * (Ca + Ca.T)
        idx = np.flatnonzero(active)
        C[np.ix_(idx, idx)] = Ca
    return QuantityCovariance(matrix=C, constrained=constrained,
                              pseudo_inverse_used=pinv_used)


def _require_treatment(model: LpmModel):
    if model.n_treatment < 1:
        raise ParameterError("model has no treatment components")


def response_result(model: LpmModel, h, q, cov: QuantityCovariance) -> ResponseResult:
    """Per-tumor treatment response: total treatment quantity, Z, P, fraction."""
    _require_treatment(model)
    q = np.asarray(q, dtype=float)
    C = cov.matrix
    tsl = model.treatment_slice
    q_t = float(q[tsl].sum())
    var_t = float(np.sum(C[tsl, tsl]))
    sigma_t = float(np.sqrt(max(var_t, 0.0)))
    total = float(q.sum())
    eff = q_t / total if total > 0 else 0.0

    # delta method on the ratio of sums
    g = np.full(model.n_components, -q_t / total ** 2)
    g[tsl] += 1.0 / total
    eff_var = float(g @ C @ g)
    eff_sigma = float(np.sqrt(max(eff_var, 0.0)))

    if sigma_t > 0:
        z = q_t / sigma_t
    elif cov.constrained[tsl].all():  # every treatment component pinned at 0
        z = 0.0
    else:
        raise AnalysisError(f"tumor {h.tumor_id}: nonzero treatment quantity "
                            f"with zero error")
    return ResponseResult(tumor_id=h.tumor_id, q_treatment_total=q_t,
                          sigma_treatment=sigma_t, effect_fraction=eff,
                          effect_fraction_sigma=eff_sigma, z=z,
                          p_two_tailed=two_tailed_p(z))


def combine_cohort(zs) -> CohortSummary:
    """Stouffer combination of per-tumor Z-scores."""
    if not zs:
        raise EmptyInputError("no results to combine")
    combined = float(np.sum(zs) / np.sqrt(len(zs)))
    return CohortSummary(combined_z=combined, combined_p=two_tailed_p(combined))


def fit_and_score(model: LpmModel, h) -> ResponseResult:
    """Fit the full model to one histogram and score its treatment response.

    The covariance is scaled by this histogram's own fit chi2/dof, with the
    fitted quantities counted as free parameters.
    """
    _require_treatment(model)
    q, _ = fit_quantities(model, h)
    M = model_expectation(model, q)
    chi2 = chi2_statistic(h.counts, M, n_free_params=model.n_components)
    cov = quantity_covariance(model, h, q, chi2)
    return response_result(model, h, q, cov)

"""Conventional benchmark: per-tumor summary changes compared with t-tests.

Summaries (volume, mean ADC, IQR) are computed from the same binned
histograms the model pipeline uses, with values placed at bin centers.
The bin-center approximation is bounded by half a bin width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .histograms import Histogram2D

# the per-tumor changes, in the order of summarise's rows and summary_change
MEASURES = ("volume_change", "mean_adc_change", "iqr_change")


@dataclass
class TTestResult:
    statistic: float
    dof: float
    p_two_tailed: float
    z_equivalent: float


def _binned_quantile(counts, centers, p):
    """Quantiles p of a binned distribution, atoms at bin centers.

    Inverts the cumulative distribution with linear interpolation between
    successive occupied bins; a single occupied bin yields that center for
    every quantile.
    """
    nz = np.flatnonzero(counts)
    cum = np.cumsum(counts[nz]) / counts[nz].sum()
    xs = centers[nz]
    return np.interp(p, np.concatenate(([0.0], cum)),
                     np.concatenate(([xs[0]], xs)))


def summarise(h: Histogram2D) -> np.ndarray:
    """Volume, mean ADC and IQR (rows, in MEASURES order) at baseline and
    follow-up (columns), from the binned counts."""
    centers = h.binning.centers
    s = np.empty((3, 2))
    for t in range(2):
        col = h.counts[:, t].astype(float)
        total = col.sum()
        if total == 0:
            raise InputError(f"tumor {h.tumor_id}: no counts at timepoint {t}")
        lower, upper = _binned_quantile(col, centers, (0.25, 0.75))
        s[:, t] = total, np.dot(col, centers) / total, upper - lower
    return s


def summary_change(h: Histogram2D) -> np.ndarray:
    """Follow-up minus baseline of each summary, in MEASURES order."""
    s = summarise(h)
    return s[:, 1] - s[:, 0]


def welch_t_test(control_changes, treated_changes) -> TTestResult:
    """Welch's unequal-variance t-test, two-tailed."""
    a = np.asarray(control_changes, dtype=float)
    b = np.asarray(treated_changes, dtype=float)
    if len(a) < 2 or len(b) < 2:
        raise InputError("each sample needs at least 2 values")
    va = a.var(ddof=1)
    vb = b.var(ddof=1)
    if va == 0 and vb == 0:
        raise InputError("both samples have zero variance")
    sa = va / len(a)
    sb = vb / len(b)
    stat = (b.mean() - a.mean()) / math.sqrt(sa + sb)
    dof = (sa + sb) ** 2 / (sa ** 2 / (len(a) - 1) + sb ** 2 / (len(b) - 1))
    p, z = t_test_p_and_z(stat, dof)
    return TTestResult(statistic=float(stat), dof=float(dof),
                       p_two_tailed=p, z_equivalent=z)


def t_test_p_and_z(stat, dof):
    """Two-tailed p of a t statistic and the normal z with the same p and sign.

    p = 2 * t.sf(|stat|, dof), capped at 1, and z = norm.isf(p / 2); scipy.stats
    computes t.sf(x, dof) as stdtr(dof, -x) and norm.isf(q) as -ndtri(q).
    """
    from scipy.special import ndtri, stdtr

    p = float(min(1.0, 2.0 * stdtr(dof, -abs(stat))))
    z = float(math.copysign(-ndtri(p / 2.0), stat)) if p < 1.0 else 0.0
    return p, z


def combine_tests(zs) -> float:
    """Root-sum-square combination of independent evidences of change."""
    if not zs:
        raise InputError("no test results to combine")
    return float(math.sqrt(sum(z * z for z in zs)))


def cohort_baseline(control, treated):
    """Full conventional analysis of a control and a treated cohort of histograms.

    Returns ({measure: TTestResult}, combined_z). A summary change, t
    statistic or dof that is not finite is an InputError naming its measure.
    """
    if not control or not treated:
        raise InputError("need both control and treated histograms")
    with np.errstate(all="ignore"):  # an overflow is rejected below
        control = np.array([summary_change(h) for h in control])
        treated = np.array([summary_change(h) for h in treated])
        tests = {measure: welch_t_test(control[:, j], treated[:, j])
                 for j, measure in enumerate(MEASURES)}
    for (measure, r), a, b in zip(tests.items(), control.T, treated.T):
        if not np.isfinite([*a, *b, r.statistic, r.dof]).all():
            raise InputError(f"{measure}: summary change, t statistic or dof not finite")
    combined = combine_tests([r.z_equivalent for r in tests.values()])
    return tests, combined


def baseline_table(tests, combined_z) -> list:
    """Header, one row per measure and the combined row, as baseline.csv holds them."""
    return ([("measure", "t_statistic", "dof", "p_two_tailed", "z_equivalent")]
            + [(measure, repr(r.statistic), repr(r.dof), repr(r.p_two_tailed),
                repr(r.z_equivalent)) for measure, r in tests.items()]
            + [("combined", "", "", "", repr(combined_z))])

"""Conventional benchmark: per-tumor summary changes compared with t-tests.

Summaries (volume, mean ADC, IQR) are computed from the same binned
histograms the model pipeline uses, with values placed at bin centers.
The bin-center approximation is bounded by half a bin width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVarianceError, EmptyInputError, UndefinedSummaryError
from .histograms import Histogram2D


@dataclass
class TimepointSummary:
    volume: tuple  # voxel counts, (baseline, followup)
    mean_adc: tuple
    iqr_adc: tuple


@dataclass
class SummaryChange:
    tumor_id: str
    cohort: str
    d_volume: float
    d_mean_adc: float
    d_iqr_adc: float


@dataclass
class TTestResult:
    statistic: float
    dof: float
    p_two_tailed: float
    z_equivalent: float


def _binned_quantile(counts, centers, p):
    """Quantile of a binned distribution, atoms at bin centers.

    Inverts the cumulative distribution with linear interpolation between
    successive occupied bins; a single occupied bin yields that center for
    every quantile.
    """
    nz = np.flatnonzero(counts)
    cum = np.cumsum(counts[nz]) / counts[nz].sum()
    xs = centers[nz]
    return float(np.interp(p, np.concatenate(([0.0], cum)),
                           np.concatenate(([xs[0]], xs))))


def summarise(h: Histogram2D) -> TimepointSummary:
    """Volume, mean ADC and IQR per timepoint from the binned counts."""
    centers = h.binning.centers
    volumes, means, iqrs = [], [], []
    for t in range(2):
        col = h.counts[:, t].astype(float)
        total = col.sum()
        if total == 0:
            raise UndefinedSummaryError(f"tumor {h.tumor_id}: no counts at timepoint {t}")
        volumes.append(float(total))
        means.append(float(np.dot(col, centers) / total))
        iqrs.append(_binned_quantile(col, centers, 0.75)
                    - _binned_quantile(col, centers, 0.25))
    return TimepointSummary(volume=tuple(volumes), mean_adc=tuple(means),
                            iqr_adc=tuple(iqrs))


def summary_change(h: Histogram2D) -> SummaryChange:
    s = summarise(h)
    return SummaryChange(tumor_id=h.tumor_id, cohort=h.cohort,
                         d_volume=s.volume[1] - s.volume[0],
                         d_mean_adc=s.mean_adc[1] - s.mean_adc[0],
                         d_iqr_adc=s.iqr_adc[1] - s.iqr_adc[0])


def welch_t_test(control_changes, treated_changes) -> TTestResult:
    """Welch's unequal-variance t-test, two-tailed."""
    a = np.asarray(control_changes, dtype=float)
    b = np.asarray(treated_changes, dtype=float)
    if len(a) < 2 or len(b) < 2:
        raise EmptyInputError("each sample needs at least 2 values")
    va = a.var(ddof=1)
    vb = b.var(ddof=1)
    if va == 0 and vb == 0:
        raise DegenerateVarianceError("both samples have zero variance")
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
        raise EmptyInputError("no test results to combine")
    return float(math.sqrt(sum(z * z for z in zs)))


def cohort_baseline(histograms):
    """Full conventional analysis over one mixed cohort of histograms.

    Returns ({measure: TTestResult}, combined_z).
    """
    changes = [summary_change(h) for h in histograms]
    control = [c for c in changes if c.cohort == "control"]
    treated = [c for c in changes if c.cohort == "treated"]
    if not control or not treated:
        raise EmptyInputError("need both control and treated histograms")
    tests = {}
    for measure, attr in [("volume_change", "d_volume"),
                          ("mean_adc_change", "d_mean_adc"),
                          ("iqr_change", "d_iqr_adc")]:
        tests[measure] = welch_t_test([getattr(c, attr) for c in control],
                                      [getattr(c, attr) for c in treated])
    combined = combine_tests([r.z_equivalent for r in tests.values()])
    return tests, combined


def baseline_table(tests, combined_z) -> list:
    """Header, one row per measure and the combined row, as baseline.csv holds them."""
    return ([("measure", "t_statistic", "dof", "p_two_tailed", "z_equivalent")]
            + [(measure, repr(r.statistic), repr(r.dof), repr(r.p_two_tailed),
                repr(r.z_equivalent)) for measure, r in tests.items()]
            + [("combined", "", "", "", repr(combined_z))])

"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from lpm.histograms import BinningConfig, Histogram2D
from lpm.model import ComponentPmf, LpmModel
from lpm.synth import bump_pmf


@pytest.fixture
def binning():
    return BinningConfig()


@pytest.fixture
def small_binning():
    return BinningConfig(n_adc_bins=8)


def make_pmf(binning, seed, phase="control", index=0):
    """Random dense PMF on the (ADC bin x timepoint) grid."""
    rng = np.random.default_rng(seed)
    g = rng.gamma(3.0, size=(binning.n_adc_bins, 2))
    g /= g.sum()
    return ComponentPmf(probs=g, phase=phase, index=index)


def make_model(binning, n_control=2, n_treatment=0, seed=0):
    comps = [make_pmf(binning, seed + k, "control", k) for k in range(n_control)]
    comps += [make_pmf(binning, seed + n_control + k, "treatment", n_control + k)
              for k in range(n_treatment)]
    return LpmModel(P=np.column_stack([c.probs.reshape(-1) for c in comps]),
                    n_control=n_control, binning=binning)


def poisson_histogram(model, q, seed, tumor_id="t1", cohort="control"):
    """Poisson draw of one histogram from a model at quantities q."""
    from lpm.model import model_expectation

    rng = np.random.default_rng(seed)
    counts = rng.poisson(model_expectation(model, q))
    return Histogram2D(tumor_id=tumor_id, cohort=cohort, counts=counts,
                      binning=model.binning)


@pytest.fixture
def small_cohorts(small_binning):
    """Four control and four treated Poisson histograms from a 2 + 1 model."""
    truth = make_model(small_binning, n_control=2, n_treatment=1, seed=3)
    control = [poisson_histogram(truth, np.array([4000.0, 2000.0, 0.0]),
                                 seed=i, tumor_id=f"c{i}")
               for i in range(4)]
    treated = [poisson_histogram(truth, np.array([2500.0, 1500.0, 2000.0]),
                                 seed=10 + i, tumor_id=f"t{i}", cohort="treated")
               for i in range(4)]
    return control, treated


def em_from_outside_the_cone():
    """Run model._em from a negative quantity, where its updates lower the objective."""
    from lpm.model import _em

    P = np.array([[0.36, 0.09], [0.32, 0.89], [0.32, 0.02]])
    return _em(np.array([[16.0, 2.0, 7.0]]), P / P.sum(axis=0),
               np.array([[10.8, -2.9]]), np.zeros(2, dtype=bool), 50, 1e-12)


def separated_components(binning, n_control, n_treatment, floor=0.0):
    """Bump components with control and treatment in distinct ADC ranges."""
    control = [bump_pmf(binning, 0.10 + 0.36 * (k + 0.5) / n_control,
                        0.12 + 0.36 * (k + 0.5) / n_control,
                        width=0.05, floor=floor, phase="control", index=k)
               for k in range(n_control)]
    treatment = [bump_pmf(binning, 0.52 + 0.24 * (k + 0.5) / max(n_treatment, 1),
                          0.80 + 0.14 * (k + 0.5) / max(n_treatment, 1),
                          width=0.05, floor=floor, phase="treatment",
                          index=n_control + k)
                 for k in range(n_treatment)]
    return control, treatment

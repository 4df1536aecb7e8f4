"""Synthetic cohort generation with known ground truth.

Each component is a discretised pair of Gaussian bumps on the ADC axis,
one per timepoint; treatment-like components move mass toward higher ADC
at follow-up. Histograms are independent Poisson draws from the expected
grid, so the generated data match the model's sampling assumptions exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .histograms import TIMEPOINTS, BinningConfig, Histogram2D
from .model import ComponentPmf


@dataclass
class SynthSpec:
    binning: BinningConfig
    control_pmfs: list  # ComponentPmf
    treatment_pmfs: list
    cohort_sizes: tuple  # (n_control_tumors, n_treated_tumors)
    counts_per_tumor: float = 20000.0
    quantity_dirichlet_alpha: np.ndarray = None  # length = total components
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        if not self.control_pmfs:
            raise ValueError("need at least one control PMF")
        if not self.counts_per_tumor > 0:  # also rejects nan
            raise ValueError("counts_per_tumor must be > 0")
        k = len(self.control_pmfs) + len(self.treatment_pmfs)
        if self.quantity_dirichlet_alpha is None:
            self.quantity_dirichlet_alpha = np.full(k, 5.0)
        self.quantity_dirichlet_alpha = np.asarray(self.quantity_dirichlet_alpha,
                                                   dtype=float)
        if self.quantity_dirichlet_alpha.shape != (k,):
            raise ValueError(f"need {k} Dirichlet alphas")
        if not np.all(self.quantity_dirichlet_alpha > 0):
            raise ValueError("Dirichlet alphas must be positive")


@dataclass
class GroundTruth:
    quantities: dict  # tumor_id -> expected quantity vector (full length)
    effect_fractions: dict  # treated tumor_id -> true responding fraction
    n_control_components: int
    n_treatment_components: int


def bump_pmf(binning: BinningConfig, center_baseline, center_followup,
             width=0.08, floor=0.0, phase="control", index=0) -> ComponentPmf:
    """Component PMF made of one Gaussian bump per timepoint, each holding
    half of the mass.

    Centers are in fractions of the ADC range; width is the bump standard
    deviation in the same units. floor mixes in a uniform background,
    keeping every cell's expectation away from the low-count regime where
    the square-root variance approximation degrades.
    """
    span = binning.adc_max - binning.adc_min
    x = (binning.centers - binning.adc_min) / span
    grid = np.empty((binning.n_adc_bins, 2))
    for t, center in enumerate([center_baseline, center_followup]):
        bump = np.exp(-0.5 * ((x - center) / width) ** 2)
        grid[:, t] = bump / bump.sum()
    grid[:, 0] *= 0.5
    grid[:, 1] *= 0.5
    grid /= grid.sum()
    if floor > 0:
        grid = (1.0 - floor) * grid + floor / grid.size
    return ComponentPmf(probs=grid, phase=phase, index=index)


def generate(spec: SynthSpec):
    """Draw one cohort pair; deterministic given spec.seed.

    Control tumors mix control components only; treated tumors mix all
    components. Returns (control histograms, treated histograms, GroundTruth).
    """
    rng = np.random.default_rng(spec.seed)
    k_control = len(spec.control_pmfs)
    k_total = k_control + len(spec.treatment_pmfs)
    P = np.column_stack([c.probs.reshape(-1)
                         for c in spec.control_pmfs + spec.treatment_pmfs])
    quantities = {}
    fractions = {}

    def draw(tumor_id, cohort, alphas, comp_idx):
        w = rng.dirichlet(alphas)
        q = np.zeros(k_total)
        q[comp_idx] = spec.counts_per_tumor * w
        m = (P @ q).reshape(spec.binning.n_adc_bins, 2)
        counts = rng.poisson(m)
        quantities[tumor_id] = q
        return Histogram2D(tumor_id=tumor_id, cohort=cohort,
                           counts=counts, binning=spec.binning)

    control = [draw(f"ctl{i + 1:02d}", "control",
                    spec.quantity_dirichlet_alpha[:k_control],
                    np.arange(k_control))
               for i in range(spec.cohort_sizes[0])]
    treated = []
    for j in range(spec.cohort_sizes[1]):
        h = draw(f"trt{j + 1:02d}", "treated",
                 spec.quantity_dirichlet_alpha, np.arange(k_total))
        q = quantities[h.tumor_id]
        fractions[h.tumor_id] = float(q[k_control:].sum() / q.sum())
        treated.append(h)
    truth = GroundTruth(quantities=quantities, effect_fractions=fractions,
                        n_control_components=k_control,
                        n_treatment_components=k_total - k_control)
    return control, treated, truth


def spread_components(binning: BinningConfig, n_control: int, n_treatment: int):
    """Evenly spread bump components of width 0.05 over the ADC range.

    Control components sit in the lower half of the range with a small
    follow-up shift; treatment components occupy the upper half and push
    follow-up mass toward the top of the range, so the two phases stay
    identifiable from the joint distribution.
    """
    width = 0.05
    control = []
    for k in range(n_control):
        c = 0.10 + 0.36 * (k + 0.5) / n_control
        control.append(bump_pmf(binning, c, c + 0.02, width=width,
                                phase="control", index=k))
    treatment = []
    for k in range(n_treatment):
        frac = (k + 0.5) / max(n_treatment, 1)
        cb = 0.52 + 0.24 * frac
        cf = 0.80 + 0.14 * frac
        treatment.append(bump_pmf(binning, cb, cf, width=width,
                                  phase="treatment", index=n_control + k))
    return control, treatment


def default_scenarios(seed: int = 0) -> dict:
    """Presets sized like the two xenograft cohorts in the study design."""
    binning = BinningConfig()
    scenarios = {}
    for name, n_c, n_t, sizes in [("lovo_like", 3, 2, (8, 10)),
                                  ("hct_like", 4, 5, (13, 15))]:
        control_pmfs, treatment_pmfs = spread_components(binning, n_c, n_t)
        alphas = np.concatenate([np.full(n_c, 1.2), np.full(n_t, 1.4)])
        scenarios[name] = SynthSpec(binning=binning, control_pmfs=control_pmfs,
                                    treatment_pmfs=treatment_pmfs,
                                    cohort_sizes=sizes,
                                    counts_per_tumor=20000.0,
                                    quantity_dirichlet_alpha=alphas,
                                    seed=seed)
    return scenarios


def histogram_to_voxels(h: Histogram2D):
    """Expand a histogram into (tumor_id, cohort, timepoint, adc) voxel rows.

    Every voxel sits at its bin center. Deterministic; bin centers map back
    into the same bins, so ingesting the rows reproduces the histogram
    exactly.
    """
    if h.total == 0:
        raise InputError(f"tumor {h.tumor_id}: empty histogram")
    rows = []
    for i, center in enumerate(h.binning.centers.tolist()):
        for t, timepoint in enumerate(TIMEPOINTS):
            rows.extend([(h.tumor_id, h.cohort, timepoint, center)] * int(h.counts[i, t]))
    return rows

"""Acceptance criteria, one test per criterion.

Golden numbers come from the published cohort tables; synthetic criteria
use the generator in lpm.synth with fixed seeds. The heavy shared
computations (trained models over many seeds) live in session-scoped
fixtures so several criteria can reuse them.
"""

import numpy as np
import pytest

from lpm.baseline import cohort_baseline, combine_tests
from lpm.histograms import BinningConfig, Histogram2D
from lpm.inference import (combine_cohort, fit_and_score, quantity_covariance,
                           two_tailed_p)
from lpm.model import (LpmModel, TrainOptions, fit_quantities, model_expectation,
                       train_control, train_treatment)
from lpm.selection import GoodnessOfFit, select_components
from lpm.synth import SynthSpec, bump_pmf, default_scenarios, generate
from lpm.validation import leave_one_out

# ---------------------------------------------------------------------------
# Published table rows: (z, p, %effect, %error); p is None where the table
# prints an inequality.

LOVO_TREATMENT_ROWS = [
    (8.5, None, 45.98, 5.40),
    (8.8, None, 44.59, 5.09),
    (3.4, 0.000667, 35.64, 10.47),
    (5.9, None, 31.37, 5.24),
    (5.3, None, 40.41, 7.57),
    (6.1, None, 35.77, 5.87),
    (6.1, None, 65.75, 10.80),
    (8.6, None, 68.64, 7.94),
    (8.5, None, 55.51, 6.50),
    (5.4, None, 27.57, 5.10),
]
LOVO_COMBINED_PRINTED = 21.8

HCT_TREATMENT_ROWS = [
    (3.5, 0.000453, 66.66, 19.01),
    (3.1, 0.002239, 34.53, 11.30),
    (10.3, None, 67.00, 6.53),
    (7.5, None, 67.10, 8.97),
    (7.2, None, 84.41, 11.80),
    (7.3, None, 60.77, 8.35),
    (3.9, 0.000072, 49.04, 12.36),
    (8.3, None, 49.71, 6.01),
    (7.3, None, 70.58, 9.67),
    (20.1, None, 83.89, 4.18),
    (4.9, None, 40.94, 8.32),
    (9.9, None, 75.82, 7.61),
    (3.7, 0.000243, 65.56, 17.87),
    (9.7, None, 61.36, 6.35),
    (2.5, 0.0111474, 22.67, 8.93),
]
HCT_COMBINED_PRINTED = 32.6

LOVO_T_TEST_ZS = [3.3, 3.5, 2.0]
LOVO_T_COMBINED_PRINTED = 5.2
HCT_T_TEST_ZS = [4.6, 4.3, 2.1]
HCT_T_COMBINED_PRINTED = 8.1


# ---------------------------------------------------------------------------
# Criterion 1: Z = %Effect / %Error reproduces every printed Z to +-0.1.

def test_criterion_01_z_from_effect_arithmetic():
    for rows in (LOVO_TREATMENT_ROWS, HCT_TREATMENT_ROWS):
        for z_printed, _, effect, error in rows:
            assert effect / error == pytest.approx(z_printed, abs=0.1)


# Criterion 2: two-tailed P for the table's z = 3.404 row.

def test_criterion_02_p_from_z():
    z = 35.64 / 10.47
    assert z == pytest.approx(3.404, abs=0.001)
    p = two_tailed_p(z)
    assert 0.00063 <= p <= 0.00070
    # printed value for the same row
    assert p == pytest.approx(0.000667, abs=2e-5)


# Criterion 3: Stouffer combination over the printed per-tumor Z lists.

def test_criterion_03_cohort_combination():
    lovo = combine_cohort([z for z, _, _, _ in LOVO_TREATMENT_ROWS])
    assert lovo.combined_z == pytest.approx(21.06, abs=0.01)
    # printed 21.8 reflects rounding of the inputs; we match within 5%
    assert abs(lovo.combined_z - LOVO_COMBINED_PRINTED) / LOVO_COMBINED_PRINTED < 0.05

    hct = combine_cohort([z for z, _, _, _ in HCT_TREATMENT_ROWS])
    # documented deviation: our formula gives sum(z)/sqrt(15) = 28.20, not
    # the printed 32.6; asserted as a mismatch, not a match
    assert hct.combined_z == pytest.approx(sum(z for z, _, _, _ in
                                               HCT_TREATMENT_ROWS) / np.sqrt(15))
    assert hct.combined_z == pytest.approx(28.20, abs=0.01)
    assert abs(hct.combined_z - HCT_COMBINED_PRINTED) > 1.0


# Criterion 4: baseline combined Z as root-sum-square of the t-test Zs.

def test_criterion_04_baseline_combined_z():
    lovo = combine_tests(LOVO_T_TEST_ZS)
    assert lovo == pytest.approx(LOVO_T_COMBINED_PRINTED, abs=0.05)
    hct = combine_tests(HCT_T_TEST_ZS)
    # documented deviation: root-sum-square of the printed Zs is 6.64,
    # not the printed 8.1
    assert hct == pytest.approx(6.64, abs=0.01)
    assert abs(hct - HCT_T_COMBINED_PRINTED) > 1.0


# ---------------------------------------------------------------------------
# Shared heavy fixture: 20 seeds of the lovo_like preset, trained end to end.

N_PAPER_SEEDS = 20


@pytest.fixture(scope="session")
def paper_scale_runs():
    runs = []
    for seed in range(N_PAPER_SEEDS):
        spec = default_scenarios(seed=seed)["lovo_like"]
        control, treated, truth = generate(spec)
        opts = TrainOptions(seed=seed, restarts=5)
        base = train_control(control, len(spec.control_pmfs), opts)
        full = train_treatment(base.model, treated,
                               len(spec.treatment_pmfs), opts)
        treated_results = [fit_and_score(full.model, h) for h in treated]
        control_results = [fit_and_score(full.model, h) for h in control]
        lpm_combined = combine_cohort([r.z for r in treated_results]).combined_z
        _, baseline_combined = cohort_baseline(control, treated)
        runs.append({
            "truth": truth,
            "treated_results": treated_results,
            "control_results": control_results,
            "lpm_combined": lpm_combined,
            "baseline_combined": baseline_combined,
        })
    return runs


# Criterion 5: recovered effect fractions within 3 propagated sigma of truth
# for >= 90% of treated tumors.

def test_criterion_05_em_effect_fraction_recovery(paper_scale_runs):
    hits = 0
    total = 0
    for run in paper_scale_runs:
        for r in run["treated_results"]:
            true_frac = run["truth"].effect_fractions[r.tumor_id]
            total += 1
            if abs(r.effect_fraction - true_frac) <= 3 * r.effect_fraction_sigma:
                hits += 1
    coverage = hits / total
    assert total == N_PAPER_SEEDS * 10
    assert coverage >= 0.90, f"coverage {coverage:.3f}"


# Criterion 6: component-count selection recovers K_true for K_true in
# {2, 3, 4} in >= 80% of 20 seeds, with median chi2/dof at K_true near unity.

def _selection_scenario(k_true, seed):
    binning = BinningConfig()
    pmfs = [bump_pmf(binning, 0.10 + 0.70 * (i + 0.5) / k_true,
                     0.12 + 0.70 * (i + 0.5) / k_true,
                     width=0.05, floor=0.06, phase="control", index=i)
            for i in range(k_true)]
    return SynthSpec(binning=binning, control_pmfs=pmfs, treatment_pmfs=[],
                     cohort_sizes=(12, 0), counts_per_tumor=20000.0,
                     quantity_dirichlet_alpha=np.full(k_true, 1.2), seed=seed)


@pytest.mark.parametrize("k_true", [2, 3, 4])
def test_criterion_06_model_selection(k_true):
    chosen = []
    chis = []
    for seed in range(20):
        control, _, _ = generate(_selection_scenario(k_true, seed))
        opts = TrainOptions(seed=seed, restarts=5)
        curve, _ = select_components(control, None, 1, 5, opts)
        chosen.append(curve.chosen)
        chis.append(next(p.chi2_per_dof for p in curve.points
                         if p.n_components == k_true))
    correct = np.mean(np.array(chosen) == k_true)
    median_chi2 = float(np.median(chis))
    assert correct >= 0.80, f"K_true={k_true}: correct {correct:.2f}, chosen {chosen}"
    assert 0.8 <= median_chi2 <= 1.25, f"median chi2 {median_chi2:.3f}"


# Criterion 7: analytic covariance vs finite differences and Monte Carlo.

def _dense_model(binning, n_components, seed):
    rng = np.random.default_rng(seed)
    cols = []
    for k in range(n_components):
        g = rng.gamma(3.0, size=(binning.n_adc_bins, 2))
        g /= g.sum()
        cols.append(g.reshape(-1))
    return LpmModel(P=np.column_stack(cols), n_control=n_components,
                    binning=binning)


def _solve_quantities_continuous(P, counts, q0):
    """Stationary quantities for (possibly non-integer) counts, to 1e-12."""
    q = np.asarray(q0, dtype=float).copy()
    for _ in range(500000):
        M = P @ q
        q_next = q * (P.T @ (counts / M))
        if np.max(np.abs(q_next - q)) < 1e-12:
            return q_next
        q = q_next
    return q


def test_criterion_07_jacobian_finite_difference():
    binning = BinningConfig(n_adc_bins=8)  # 16 grid cells
    model = _dense_model(binning, 2, seed=42)
    P = model.P
    q_true = np.array([3000.0, 5000.0])
    counts = np.random.default_rng(7).poisson(P @ q_true).astype(float)

    q_hat = _solve_quantities_continuous(P, counts, q_true)
    M = P @ q_hat
    A = P.T @ (P * (counts / M ** 2)[:, None])
    J_analytic = np.linalg.inv(A) @ (P.T / M[None, :])

    delta = 1e-3
    J_fd = np.empty_like(J_analytic)
    for c in range(len(counts)):
        up = counts.copy()
        up[c] += delta
        down = counts.copy()
        down[c] -= delta
        J_fd[:, c] = (_solve_quantities_continuous(P, up, q_hat)
                      - _solve_quantities_continuous(P, down, q_hat)) / (2 * delta)
    rel = np.abs(J_fd - J_analytic) / np.abs(J_analytic)
    assert rel.max() < 0.02, f"max relative error {rel.max():.4f}"


def test_criterion_07_monte_carlo_covariance():
    unit_chi2 = GoodnessOfFit(raw_chi2=1.0, dof=1, chi2_per_dof=1.0)
    binning = BinningConfig()
    for n_components, seed in ((2, 0), (3, 1)):
        model = _dense_model(binning, n_components, seed=100 + seed)
        q_true = 2000.0 + 3000.0 * np.arange(1, n_components + 1)
        expected = model_expectation(model, q_true)
        rng = np.random.default_rng(999 + seed)
        fits = []
        for _ in range(200):
            h = Histogram2D(tumor_id="t", cohort="control",
                            counts=rng.poisson(expected), binning=binning)
            q, _ = fit_quantities(model, h, q_init=q_true)
            fits.append(q)
        empirical = np.cov(np.array(fits).T)
        h0 = Histogram2D(tumor_id="t", cohort="control",
                         counts=np.round(expected).astype(np.int64),
                         binning=binning)
        analytic = quantity_covariance(model, h0, q_true, unit_chi2).matrix
        rel = np.abs(np.diag(analytic) - np.diag(empirical)) / np.diag(empirical)
        assert rel.max() < 0.30, f"K={n_components}: diag rel err {rel}"


# Criterion 8: full-model fits to inlier controls give |z| < 2 for >= 93%.

def test_criterion_08_control_specificity(paper_scale_runs):
    zs = [r.z for run in paper_scale_runs for r in run["control_results"]]
    assert len(zs) >= 100
    fraction = np.mean(np.abs(zs) < 2.0)
    assert fraction >= 0.93, f"specificity {fraction:.3f}"


# Criterion 9: leave-one-out flags a planted 30%-contaminated control tumor,
# and stays quiet on clean cohorts.

LOO_OPTS_RESTARTS = 3


def _loo_cohort(seed, contaminate):
    spec = default_scenarios(seed=seed)["lovo_like"]
    control, treated, _ = generate(spec)
    if contaminate:
        P = np.column_stack([c.probs.reshape(-1) for c in
                             spec.control_pmfs + spec.treatment_pmfs])
        rng = np.random.default_rng(10_000 + seed)
        w = rng.dirichlet(spec.quantity_dirichlet_alpha[:3])
        q = np.concatenate([0.7 * spec.counts_per_tumor * w,
                            0.3 * spec.counts_per_tumor * np.full(2, 0.5)])
        counts = rng.poisson((P @ q).reshape(spec.binning.n_adc_bins, 2))
        control[0] = Histogram2D(tumor_id=control[0].tumor_id,
                                 cohort="control", counts=counts,
                                 binning=spec.binning)
    return control, treated


def test_criterion_09_loo_planted_outlier_sensitivity():
    flagged = 0
    for seed in range(20):
        control, treated = _loo_cohort(seed, contaminate=True)
        opts = TrainOptions(seed=seed, restarts=LOO_OPTS_RESTARTS)
        entries = leave_one_out(control, treated, 3, 2, opts)
        if entries[0].outlier:
            flagged += 1
    assert flagged >= 16, f"planted outlier flagged in {flagged}/20 seeds"


def test_criterion_09_loo_clean_cohort_specificity():
    quiet = 0
    for seed in range(20):
        control, treated = _loo_cohort(seed, contaminate=False)
        opts = TrainOptions(seed=seed, restarts=LOO_OPTS_RESTARTS)
        entries = leave_one_out(control, treated, 3, 2, opts)
        if sum(e.outlier for e in entries) <= 1:
            quiet += 1
    assert quiet >= 18, f"clean cohort quiet in {quiet}/20 runs"


# Criterion 10: LPM combined Z beats the conventional combined Z by >= 2x
# in >= 80% of seeds.

def test_criterion_10_power_gain(paper_scale_runs):
    wins = sum(run["lpm_combined"] >= 2.0 * run["baseline_combined"]
               for run in paper_scale_runs)
    assert wins / len(paper_scale_runs) >= 0.80, (
        f"{wins}/{len(paper_scale_runs)} seeds with >= 2x gain")


# Criterion 11: fixed-seed end-to-end rerun produces byte-identical outputs.

def test_criterion_11_determinism(tmp_path):
    from lpm.cli import main

    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        argv = ["synth", "--preset", "lovo_like", "--seed", "4",
                "--out-dir", str(out)]
        assert main(argv) == 0
        assert main(["train", "--histograms", str(out / "histograms"),
                     "--n-control", "3", "--n-treatment", "2",
                     "--seed", "4", "--restarts", "2", "--max-iter", "2000",
                     "--out-dir", str(out)]) == 0
        assert main(["fit", "--model", str(out / "model.json"),
                     "--histograms", str(out / "histograms"),
                     "--cohort", "treated", "--seed", "4",
                     "--out-dir", str(out)]) == 0
        assert main(["baseline", "--histograms", str(out / "histograms"),
                     "--seed", "4", "--out-dir", str(out)]) == 0
        outputs.append(out)

    first, second = outputs
    compared = 0
    for path in sorted(first.rglob("*")):
        if path.is_dir():
            continue
        twin = second / path.relative_to(first)
        assert path.read_bytes() == twin.read_bytes(), f"{path.name} differs"
        compared += 1
    assert compared >= 22  # histograms + truth + model + response + baseline

"""Property tests for the EM solver and the model's JSON form.

One routine, ``model._em``, runs both training phases and every per-tumor
quantity fit; these properties hold for any trainable mask, including the
all-frozen mask of a quantity fit.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lpm.histograms import BinningConfig
from lpm.model import LpmModel, _em

MAX_ITER = 300
TOL = 1e-9
# one EM step cannot lower the objective; summing S * n_cells terms can
ROUNDING = 1e-10


@st.composite
def problems(draw):
    """Small Poisson H, Dirichlet P, a positive start Q and a trainable mask."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    S = draw(st.integers(1, 4))
    n_cells = draw(st.integers(2, 12))
    K = draw(st.integers(1, 4))
    if draw(st.booleans()):
        trainable = np.zeros(K, dtype=bool)  # quantity fit
    else:
        trainable = np.array(draw(st.lists(st.booleans(), min_size=K, max_size=K)))
    scale = draw(st.sampled_from([1.0, 30.0, 1000.0]))
    rng = np.random.default_rng(seed)
    P = np.ascontiguousarray(rng.dirichlet(np.ones(n_cells), size=K).T)
    Q_true = rng.uniform(0.0, 2.0, size=(S, K)) * scale
    H = rng.poisson(Q_true @ P.T).astype(float)
    Q = rng.uniform(0.1, 2.0, size=(S, K)) * scale
    return H, P, Q, trainable, seed


def _objective(H, P, Q, trainable):
    """Objective at (P, Q): the value of a zero-iteration run."""
    return _em(H, P.copy(), Q, trainable, 0, TOL)[2].log_likelihood


def _slack(value):
    return ROUNDING * max(1.0, abs(value))


@settings(max_examples=60, deadline=None)
@given(problems(), st.booleans())
def test_em_invariants(problem, reseed):
    H, P0, Q0, trainable, seed = problem
    rng = np.random.default_rng(seed + 1) if reseed else None
    P, Q, diag, _ = _em(H, P0.copy(), Q0, trainable, MAX_ITER, TOL, rng)
    assert 1 <= diag.n_iterations <= MAX_ITER
    assert np.isfinite(diag.log_likelihood)
    assert np.all(Q >= 0)
    assert np.all(np.abs(P[:, trainable].sum(axis=0) - 1.0) <= 1e-12)
    assert np.all(P >= 0)
    assert np.array_equal(P[:, ~trainable], P0[:, ~trainable])


@settings(max_examples=60, deadline=None)
@given(problems())
def test_em_objective_never_decreases(problem):
    H, P0, Q0, trainable, _ = problem
    start = _objective(H, P0, Q0, trainable)
    P, Q, diag, _ = _em(H, P0.copy(), Q0, trainable, MAX_ITER, TOL)
    assert diag.log_likelihood >= start
    assert diag.log_likelihood == _objective(H, P, Q, trainable)
    further = _em(H, P.copy(), Q, trainable, 1, TOL)[2].log_likelihood
    assert further >= diag.log_likelihood - _slack(diag.log_likelihood)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 3),
       st.sampled_from([0.05, 1.0]), st.integers(0, 2 ** 32 - 1))
def test_model_json_roundtrip_bitwise(n_bins, n_control, n_treatment, alpha, seed):
    binning = BinningConfig(n_adc_bins=n_bins)
    K = n_control + n_treatment
    P = np.random.default_rng(seed).dirichlet(np.full(binning.n_cells, alpha),
                                              size=K).T
    model = LpmModel(P=P, n_control=n_control, binning=binning,
                     training_meta={"seed": seed})
    text = json.dumps(model.to_json_dict(), indent=1, sort_keys=True)
    back = LpmModel.from_json_dict(json.loads(text))
    assert np.array_equal(back.P, model.P)
    assert (back.n_control, back.n_treatment) == (n_control, n_treatment)
    assert json.dumps(back.to_json_dict(), indent=1, sort_keys=True) == text

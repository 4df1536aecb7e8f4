"""Linear Poisson model training by EM on the extended likelihood.

A model is a set of shared component PMFs over the (ADC bin x timepoint)
grid plus, per histogram, non-negative component quantities measured in
voxel counts. Training is two-phase: control components are learnt from the
control cohort alone; treatment components are then learnt from the treated
cohort with the control components frozen.

Internally histograms are flattened to vectors of length n_cells; the PMF
matrix P has shape (n_cells, K) with columns summing to one, and quantities
Q have shape (S, K). The multiplicative fixed-point updates

    Q <- Q * ((H / M) @ P)
    P[:, k] <- P[:, k] * (R.T @ Q)[:, k]  (renormalised, trainable k only)

with M = Q @ P.T and R = H / M never leave the non-negative cone and never
decrease the objective. One routine, _em, runs them for both training
phases and for per-histogram quantity fits; they differ only in which PMF
columns are frozen (all of them for a quantity fit).

The updates converge linearly, so _em accelerates them with SQUAREM
(Varadhan & Roland 2008). One cycle over theta = (Q, trainable columns of
P) takes two maps theta0 -> theta1 -> theta2, forms r = theta1 - theta0 and
v = theta2 - 2 theta1 + theta0, and jumps to theta0 + 2s r + s^2 v with
s = max(1, min(|r|/|v|, step_max)); trainable columns are renormalised and
frozen ones kept bitwise. A jump that leaves the non-negative cone is not
dropped but shortened: s moves halfway to 1, s <- (s + 1) / 2, up to
_BACKTRACKS times (s = 1 itself would land on theta2). One more map
stabilises the jump, which is kept only if its objective is at least
theta2's; otherwise, or when every shortened jump also left the cone, the
cycle ends at theta2. step_max starts at 1, grows 4x when |r|/|v| reaches
it and the jump was taken at full length, stays put when a shortened jump
is kept, and shrinks 4x (not below 1) after a rejection. The convergence
and decrease checks run once per cycle against the last accepted
objective. Iterations count maps, 2 or 3 per cycle; max_iter caps them,
and fewer than 3 left are spent as plain steps.

Both training phases learn new PMF columns beside frozen ones (none for the
control phase) through one restart loop, _train_phase.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import AnalysisError, InputError, read_input
from .histograms import BinningConfig, Histogram2D, write_json

_M_FLOOR = 1e-300
_DEGENERACY_FRACTION = 1e-6  # of total counts, per trainable component
_STEP_MAX0 = 1.0  # SQUAREM's step_max at the start of a fit
_BACKTRACKS = 5  # times s - 1 is halved when a SQUAREM jump leaves the cone


@dataclass(frozen=True)
class TrainOptions:
    seed: int = 0
    restarts: int = 5
    max_iter: int = 10000
    tol: float = 1e-9  # relative log-likelihood change

    def __post_init__(self):
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        if self.restarts < 1:
            raise InputError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iter < 1:
            raise InputError(f"max_iter must be >= 1, got {self.max_iter}")
        if not self.tol >= 0:  # also rejects nan
            raise InputError(f"tol must be >= 0, got {self.tol}")


@dataclass
class ComponentPmf:
    """One component PMF on the grid, as a synthetic-cohort specification."""

    probs: np.ndarray  # (n_adc_bins, 2), sums to 1
    phase: str  # "control" | "treatment"
    index: int

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        if not np.all(self.probs >= 0):  # also rejects nan
            raise ValueError("PMF cells must be non-negative")
        if not abs(self.probs.sum() - 1.0) <= 1e-9:
            raise ValueError(f"PMF must sum to 1, got {self.probs.sum()}")


@dataclass
class FitDiagnostics:
    log_likelihood: float
    n_iterations: int
    converged: bool
    degenerate: bool  # a trainable component collapsed (never, in a quantity fit)


@dataclass
class LpmModel:
    """Column PMFs P (n_cells, K), control columns first, then treatment.

    P is stored C-contiguous and read-only: frozen columns cannot be written
    through the model, and every fit multiplies the same layout.
    """

    P: np.ndarray
    n_control: int
    binning: BinningConfig
    training_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        P = np.array(self.P, dtype=float, order="C")
        if P.ndim != 2 or P.shape[0] != self.binning.n_cells:
            raise ValueError(f"PMF matrix shape {P.shape} does not match "
                             f"{self.binning.n_cells} binning cells")
        if not 1 <= self.n_control <= P.shape[1]:
            raise ValueError(f"need 1 <= n_control <= {P.shape[1]}, "
                             f"got {self.n_control}")
        if not np.all(P >= 0):  # also rejects nan
            raise ValueError("PMF cells must be non-negative")
        sums = P.sum(axis=0)
        if not np.all(np.abs(sums - 1.0) <= 1e-9):
            raise ValueError(f"PMF columns must sum to 1, got {sums}")
        P.flags.writeable = False
        self.P = P

    @property
    def n_components(self) -> int:
        return self.P.shape[1]

    @property
    def n_treatment(self) -> int:
        return self.n_components - self.n_control

    @property
    def treatment_slice(self) -> slice:
        return slice(self.n_control, self.n_components)

    @property
    def phases(self) -> list:
        return ["control"] * self.n_control + ["treatment"] * self.n_treatment

    def to_json_dict(self):
        grid = (self.binning.n_adc_bins, 2)
        return {
            "binning": self.binning.to_json_dict(),
            "n_control": self.n_control,
            "n_treatment": self.n_treatment,
            "components": [{"phase": phase, "probs": self.P[:, k].reshape(grid).tolist()}
                           for k, phase in enumerate(self.phases)],
            "training_meta": self.training_meta,
        }

    @classmethod
    def from_json_dict(cls, d) -> "LpmModel":
        binning = BinningConfig.from_json_dict(d["binning"])
        for key in ("n_control", "n_treatment"):  # a bool or float would pass the checks below
            if isinstance(d[key], bool) or not isinstance(d[key], numbers.Integral):
                raise ValueError(f"{key} must be an integer, got {d[key]!r}")
        comps = d["components"]
        probs = np.array([c["probs"] for c in comps], dtype=float)
        if probs.shape[1:] != (binning.n_adc_bins, 2):
            raise ValueError("component grid does not match binning")
        model = cls(P=probs.reshape(len(comps), -1).T, n_control=d["n_control"],
                    binning=binning, training_meta=d.get("training_meta", {}))
        phases = [c["phase"] for c in comps]
        if phases != model.phases or d["n_treatment"] != model.n_treatment:
            raise ValueError(f"component phases {phases} do not match "
                             f"{d['n_control']} control + {d['n_treatment']} treatment")
        return model


@dataclass
class TrainResult:
    model: LpmModel
    quantities: np.ndarray  # (S, K) as EM left them, rows in cohort order
    diagnostics: FitDiagnostics


def write_model_json(path, model: LpmModel):
    write_json(path, model.to_json_dict())


def read_model_json(path) -> LpmModel:
    """Model from a model.json file; a malformed file is an InputError."""
    return read_input(path, "model", lambda fh: LpmModel.from_json_dict(json.load(fh)))


def _em(H, P, Q, trainable, max_iter, tol):
    """Run SQUAREM-accelerated multiplicative EM to convergence.

    H: (S, n_cells) counts; P: (n_cells, K) column-normalised PMFs; Q: (S, K)
    quantities; trainable: boolean mask over components whose PMF columns
    may move (none for a quantity-only fit). Frozen columns are never
    written. The objective is the extended likelihood sum H*ln(M) - sum Q,
    taken from the expectation M = Q @ P.T that the next Q-step reuses.
    max_iter caps the number of multiplicative maps. A fit that converges
    with a trainable component whose total quantity is below
    _DEGENERACY_FRACTION of the counts is degenerate: the multiplicative
    updates only shrink an unused component towards 0. Returns (P, Q,
    diagnostics).
    """
    H = np.asarray(H, dtype=float)
    populated = np.flatnonzero(H)  # flat indices, in the order H[H > 0] reads
    H_populated = H.take(populated)
    total_counts = H.sum()
    train_cols = np.flatnonzero(trainable)
    train_any = train_cols.size > 0
    train_all = train_cols.size == trainable.size

    def expectation(P, Q):
        M = np.dot(Q, P.T)
        return np.maximum(M, _M_FLOOR, out=M)

    def objective(Q, M):
        return float((H_populated * np.log(M.take(populated))).sum() - Q.sum())

    def normalise(G, colsum, P):
        """Trainable columns of G scaled to sum 1; the others (and any with
        a non-positive sum) taken from P."""
        if train_all and colsum.min() > 0:
            return G / colsum
        move = trainable & (colsum > 0)
        return np.where(move, G / np.where(move, colsum, 1.0), P)

    def em_map(P, Q, M):
        """One multiplicative step from (P, Q), whose expectation is M."""
        Q = Q * np.dot(H / M, P)
        M = expectation(P, Q)
        if train_any:
            G = P * np.dot((H / M).T, Q)
            P = normalise(G, G.sum(axis=0), P)
            M = expectation(P, Q)
        return P, Q, M

    def extrapolate(P0, Q0, P1, Q1, P2, Q2, step_max):
        """SQUAREM point theta0 + 2s r + s^2 v, the ratio |r|/|v| and
        whether s was shortened.

        Frozen PMF columns are equal in all three points, so they add nothing
        to r and v and are kept bitwise. A point outside the non-negative
        cone is retried with s moved halfway to 1, up to _BACKTRACKS times;
        the point is None when the last try is still outside.
        """
        rQ, vQ = Q1 - Q0, Q2 - 2.0 * Q1 + Q0
        r2, v2 = np.vdot(rQ, rQ), np.vdot(vQ, vQ)
        if train_any:
            rP, vP = P1 - P0, P2 - 2.0 * P1 + P0
            r2, v2 = r2 + np.vdot(rP, rP), v2 + np.vdot(vP, vP)
        ratio = np.sqrt(r2 / v2) if v2 > 0 else np.inf
        step = max(1.0, min(ratio, step_max))
        if step == 1.0:  # s = 1 lands exactly on theta2
            return P2, Q2, ratio, False
        for tries in range(_BACKTRACKS + 1):
            if tries:
                step = 0.5 * (step + 1.0)
            Q = Q0 + (2.0 * step) * rQ + (step * step) * vQ
            if Q.min() < 0:
                continue
            if not train_any:
                return P0, Q, ratio, tries > 0
            P = P0 + (2.0 * step) * rP + (step * step) * vP
            colsum = P.sum(axis=0)
            if P.min() < 0 or colsum.min() <= 0:
                continue
            return normalise(P, colsum, P0), Q, ratio, tries > 0
        return None, None, ratio, True

    M = expectation(P, Q)
    prev = objective(Q, M)
    step_max = _STEP_MAX0
    converged = False
    degenerate = False
    it = 0
    while it < max_iter:
        if max_iter - it < 3:  # no room for a cycle: plain steps
            P, Q, M = em_map(P, Q, M)
            cur = objective(Q, M)
            it += 1
        else:
            P1, Q1, M1 = em_map(P, Q, M)
            P2, Q2, M2 = em_map(P1, Q1, M1)
            cur = objective(Q2, M2)
            it += 2
            Px, Qx, ratio, shortened = extrapolate(P, Q, P1, Q1, P2, Q2,
                                                   step_max)
            accepted = False
            if Qx is not None:
                Mx = M2 if Qx is Q2 else expectation(Px, Qx)
                Px, Qx, Mx = em_map(Px, Qx, Mx)
                it += 1
                cur_x = objective(Qx, Mx)
                accepted = cur_x >= cur
            if accepted:
                P, Q, M, cur = Px, Qx, Mx, cur_x
                if ratio >= step_max and not shortened:
                    step_max *= 4.0
            else:
                P, Q, M = P2, Q2, M2
                step_max = max(1.0, step_max / 4.0)
        if cur < prev - 1e-6 * max(1.0, abs(prev)):
            raise AnalysisError(f"EM objective decreased: {prev} -> {cur}")
        converged = abs(cur - prev) <= tol * max(1.0, abs(prev))
        prev = cur
        if converged:
            mass = Q.sum(axis=0).take(train_cols)
            degenerate = bool(np.any(mass < _DEGENERACY_FRACTION * total_counts))
            break
    diag = FitDiagnostics(log_likelihood=prev, n_iterations=it,
                          converged=converged, degenerate=degenerate)
    return P, Q, diag


def _stack(cohort, binning):
    """Counts of each histogram as a row of an (S, n_cells) float array.

    A histogram on another grid, or with no counts, is rejected.
    """
    H = np.empty((len(cohort), binning.n_cells))
    for i, h in enumerate(cohort):
        if h.binning != binning:
            raise InputError(f"tumor {h.tumor_id}: binning differs from model")
        if h.total == 0:
            raise InputError(f"tumor {h.tumor_id}: empty histogram")
        H[i] = h.counts.reshape(-1)
    return H


def _train_phase(H, P_frozen, n_new, draw_column, opts):
    """Learn n_new PMF columns beside the frozen columns of P_frozen.

    Restart r seeds default_rng(opts.seed + r), draws the new columns in
    order with draw_column(rng), starts every histogram's quantities at the
    uniform split of its counts and runs _em; the restart with the strictly
    best log-likelihood wins. Returns its (P, Q, diagnostics).
    """
    k_total = P_frozen.shape[1] + n_new
    trainable = np.arange(k_total) >= P_frozen.shape[1]
    best = None
    for r in range(opts.restarts):
        rng = np.random.default_rng(opts.seed + r)
        P = np.column_stack([P_frozen] + [draw_column(rng) for _ in range(n_new)])
        Q = np.full((H.shape[0], k_total), 1.0)
        Q *= (H.sum(axis=1) / k_total)[:, None]
        fit = _em(H, P, Q, trainable, opts.max_iter, opts.tol)
        if best is None or fit[2].log_likelihood > best[2].log_likelihood:
            best = fit
    return best


def _training_meta(opts, diag, prefix):
    """training_meta's six keys for one phase's fit, each name prefixed."""
    return {prefix + key: value for key, value in (
        ("seed", opts.seed), ("restarts", opts.restarts),
        ("iterations", diag.n_iterations), ("final_loglik", diag.log_likelihood),
        ("converged", diag.converged), ("degenerate", diag.degenerate))}


def train_control(cohort, n_control: int, opts: TrainOptions = TrainOptions()) -> TrainResult:
    """Learn control components and per-histogram quantities from a cohort."""
    if not cohort:
        raise InputError("control cohort is empty")
    if n_control < 1:
        raise InputError(f"n_control must be >= 1, got {n_control}")
    binning = cohort[0].binning
    H = _stack(cohort, binning)
    ones = np.ones(binning.n_cells)
    P, Q, diag = _train_phase(H, np.empty((binning.n_cells, 0)), n_control,
                              lambda rng: rng.dirichlet(ones), opts)
    meta = _training_meta(opts, diag, "") | {"phase": "control"}
    model = LpmModel(P=P, n_control=n_control, binning=binning,
                     training_meta=meta)
    return TrainResult(model=model, quantities=Q, diagnostics=diag)


def _nnls(A, b, max_iter=None):
    """argmin |A x - b| over x >= 0, by Lawson & Hanson's active-set method.

    (Solving Least Squares Problems, 1974, ch. 23.) Each outer iteration
    moves the column with the largest positive gradient w = A.T (b - A x)
    into the passive set and solves least squares on that set; an inner
    loop steps back towards the previous x while that solution has a
    negative entry, dropping the columns that reach zero. max_iter
    caps the outer iterations (default 3 n, as scipy.optimize.nnls);
    reaching it is an AnalysisError.
    """
    m, n = A.shape
    if max_iter is None:
        max_iter = 3 * n
    # gradient entries below rounding noise do not count as positive, so
    # duplicated columns cannot cycle
    tol = (10 * max(m, n) * np.finfo(float).eps
           * np.linalg.norm(A, axis=0).max() * np.linalg.norm(b))
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    for it in range(max_iter + 1):
        w = np.where(passive, -np.inf, A.T @ (b - A @ x))
        j = int(np.argmax(w))
        if w[j] <= tol:
            return x
        if it == max_iter:
            break
        passive[j] = True
        while True:
            s = np.zeros(n)
            s[passive] = np.linalg.lstsq(A[:, passive], b, rcond=None)[0]
            blocked = np.flatnonzero(passive & (s < 0))
            if blocked.size == 0:
                break
            ratio = x[blocked] / (x[blocked] - s[blocked])
            x = x + ratio.min() * (s - x)
            # the blocking column leaves even when rounding left it above 0
            passive[blocked[np.argmin(ratio)]] = False
            passive &= x > 0
            x[~passive] = 0.0
        x = s
    raise AnalysisError(f"non-negative least squares did not converge in "
                        f"{max_iter} iterations")


def _purify_treatment(P, n_control):
    """Strip the control-expressible part out of each treatment PMF.

    Treatment components represent variability the control model cannot
    account for; any admixture of control shape in a treatment column is
    unidentifiable (it trades off against control quantities) and inflates
    treatment mass. Each treatment column has the best non-negative control
    combination (NNLS) subtracted; the residual is clipped at zero and
    renormalised, and a column whose residual is all zero is kept as it was.

    The clip changes the model, not just its parametrisation: wherever the
    control combination exceeds the column, the purified column is no
    longer in the span of the trained model's columns, so the model can fit
    worse. On lovo_like seed 1 (train 3+2, restarts 2) the treated cohort's
    chi2/dof is 5.29 under the trained PMFs and 7.03 after purification and
    the quantity refit. Quantities under the returned PMFs need a refit.
    """
    P = P.copy()
    Pc = P[:, :n_control]
    for k in range(n_control, P.shape[1]):
        beta = _nnls(Pc, P[:, k])
        resid = np.maximum(P[:, k] - Pc @ beta, 0.0)
        if resid.sum() > 0:
            P[:, k] = resid / resid.sum()
    return P


def _control_residual(control_model: LpmModel, cohort) -> np.ndarray:
    """Positive residual of the cohort under control-only fits, normalised.

    Random inits of a treatment PMF land anywhere on the likelihood ridge
    where it blends in control shape (inflating treatment mass), so
    train_treatment draws its columns around this residual instead.
    """
    if control_model.n_treatment != 0:
        raise InputError("base model already has treatment components")
    if not cohort:
        raise InputError("treated cohort is empty")
    H = _stack(cohort, control_model.binning)
    residual = np.zeros(H.shape[1])
    for i, h in enumerate(cohort):
        q0, _ = fit_quantities(control_model, h, max_iter=2000, tol=1e-10)
        residual += np.maximum(H[i] - control_model.P @ q0, 0.0)
    if residual.sum() <= 0:
        residual = np.ones(H.shape[1])
    return residual / residual.sum()


def train_treatment(control_model: LpmModel, cohort, n_treatment: int,
                    opts: TrainOptions = TrainOptions(), residual=None) -> TrainResult:
    """Extend a control model with treatment components learnt from a cohort.

    Control PMFs are held fixed; only treatment PMFs and the per-histogram
    quantities (control and treatment alike) are optimised. The returned
    quantities are EM's, under the PMFs before _purify_treatment. residual
    is _control_residual(control_model, cohort), computed here when None.
    """
    if n_treatment < 1:
        raise InputError(f"n_treatment must be >= 1, got {n_treatment}")
    if residual is None:
        residual = _control_residual(control_model, cohort)
    binning = control_model.binning
    H = _stack(cohort, binning)
    n_cells = binning.n_cells
    n_control = control_model.n_control
    P_control = control_model.P

    def draw_column(rng):
        p = residual * rng.gamma(4.0, size=n_cells)
        return p / p.sum()

    P, Q, diag = _train_phase(H, P_control, n_treatment, draw_column, opts)
    if not np.array_equal(P[:, :n_control], P_control):
        raise AnalysisError("control components changed during treatment training")
    meta = (control_model.training_meta | _training_meta(opts, diag, "treatment_")
            | {"phase": "full"})
    model = LpmModel(P=_purify_treatment(P, n_control), n_control=n_control,
                     binning=binning, training_meta=meta)
    return TrainResult(model=model, quantities=Q, diagnostics=diag)


def train_model(control, treated, n_control: int, n_treatment: int,
                opts: TrainOptions = TrainOptions()) -> LpmModel:
    """Two-phase training: control components from the control cohort, then,
    when n_treatment > 0, treatment components from the treated cohort.

    A negative n_treatment is rejected before the control phase runs.
    """
    if n_treatment < 0:
        raise InputError(f"n_treatment must be >= 1, or 0 for a control-only "
                         f"model, got {n_treatment}")
    model = train_control(control, n_control, opts).model
    if n_treatment:
        model = train_treatment(model, treated, n_treatment, opts).model
    return model


def fit_quantities(model: LpmModel, h: Histogram2D, max_iter: int = 200000,
                   tol: float = 1e-12, q_init=None):
    """Fit component quantities to one histogram with PMFs fixed.

    The quantity-only objective is concave, so the fixed point is unique
    (up to component collinearity) and the fit is deterministic: the default
    start is the uniform split of the total count.
    """
    H = _stack([h], model.binning)
    K = model.n_components
    if q_init is None:
        q = np.full(K, H.sum() / K)
    else:
        q = np.asarray(q_init, dtype=float)
    _, Q, diag = _em(H, model.P, q[None, :], np.zeros(K, dtype=bool), max_iter, tol)
    return Q[0], diag


def model_expectation(model: LpmModel, q) -> np.ndarray:
    """Expected counts grid M = sum_k q_k * pmf_k, shape (n_adc_bins, 2)."""
    q = np.asarray(q, dtype=float)
    if q.shape != (model.n_components,):
        raise ValueError(f"expected {model.n_components} quantities, got {q.shape}")
    return (model.P @ q).reshape(model.binning.n_adc_bins, 2)

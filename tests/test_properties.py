"""Property tests for the EM solver, the quantity covariance, the model's
JSON form, the selection sweep's early stop and CSV ingest.

One routine, ``model._em``, runs both training phases and every per-tumor
quantity fit; these properties hold for any trainable mask, including the
all-frozen mask of a quantity fit. Its SQUAREM cycles must land where plain
multiplicative steps would, or higher, and respect the map cap exactly.
Histograms expanded into voxel or signal CSV files bin back to the same
counts, whatever the loaders' chunk sizes, and both loaders return what a
row-by-row csv.reader reference returns, whichever way a file is split.
A selection sweep that stops once its stopping rule is decided picks what
the rule picks on every candidate.
"""

import csv
import io
import itertools
import json
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpm import histograms, model, selection
from lpm.errors import AnalysisError
from lpm.histograms import (COHORTS, BinningConfig, Histogram2D, bin_voxels,
                            load_signal_csv, load_voxel_csv, write_voxel_csv)
from lpm.inference import quantity_covariance
from lpm.model import LpmModel, _em
from lpm.selection import (GoodnessOfFit, SelectionPoint, choose_component_count,
                           select_components)
from lpm.synth import histogram_to_voxels

MAX_ITER = 300
TOL = 1e-9
# one EM step cannot lower the objective; summing S * n_cells terms can
ROUNDING = 1e-10
# KKT residual of a quantity fit stopped by fit_quantities' tol
KKT_EPS = 1e-2
PLAIN_STEPS = 20000


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
@given(problems())
def test_em_invariants(problem):
    H, P0, Q0, trainable, _ = problem
    P, Q, diag = _em(H, P0.copy(), Q0, trainable, MAX_ITER, TOL)
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
    P, Q, diag = _em(H, P0.copy(), Q0, trainable, MAX_ITER, TOL)
    assert diag.log_likelihood >= start
    assert diag.log_likelihood == _objective(H, P, Q, trainable)
    further = _em(H, P.copy(), Q, trainable, 1, TOL)[2].log_likelihood
    assert further >= diag.log_likelihood - _slack(diag.log_likelihood)


def _plain_map(H, P, Q, trainable):
    """One Lee-Seung multiplicative step, written out independently of _em."""
    Q = Q * ((H / np.maximum(Q @ P.T, 1e-300)) @ P)
    if trainable.any():
        G = P * ((H / np.maximum(Q @ P.T, 1e-300)).T @ Q)
        cols = trainable & (G.sum(axis=0) > 0)
        P = P.copy()
        P[:, cols] = G[:, cols] / G[:, cols].sum(axis=0)
    return P, Q


@settings(max_examples=60, deadline=None)
@given(problems(), st.sampled_from([0, 5, 20]),
       st.sampled_from([1.0, 4.0, 64.0, 1e6]))
def test_one_squarem_cycle_reaches_two_plain_steps(problem, warm, step_max0):
    """One cycle (max_iter=3), from a start `warm` plain steps in, ends no
    lower than two plain steps, inside the cone, with frozen columns
    bitwise unchanged. A first step_max above 1 makes the cycle jump at
    once, so jumps that leave the cone and are shortened are exercised
    (in a third or more of the warm draws with trainable columns)."""
    H, P0, Q0, trainable, _ = problem
    for _ in range(warm):
        P0, Q0 = _plain_map(H, P0, Q0, trainable)
    two_steps = _objective(H, *_plain_map(H, *_plain_map(H, P0, Q0, trainable),
                                          trainable), trainable)
    with mock.patch.object(model, "_STEP_MAX0", step_max0):
        P, Q, diag = _em(H, P0.copy(), Q0, trainable, 3, TOL)
    assert diag.log_likelihood >= two_steps - _slack(two_steps)
    assert np.all(Q >= 0) and np.all(P >= 0)
    assert np.all(np.abs(P[:, trainable].sum(axis=0) - 1.0) <= 1e-12)
    assert np.array_equal(P[:, ~trainable], P0[:, ~trainable])


def test_shortened_jump_beats_dropping_it():
    """A treatment-phase cycle whose full jump leaves the cone: shortening
    it (the default) ends higher than dropping it, which ends the cycle at
    theta2 and leaves one plain step."""
    rng = np.random.default_rng(6)
    P = np.ascontiguousarray(rng.dirichlet(np.ones(8), size=3).T)
    H = rng.poisson(rng.uniform(0.0, 60.0, size=(3, 3)) @ P.T).astype(float)
    Q = rng.uniform(3.0, 60.0, size=(3, 3))
    trainable = np.array([False, True, True])
    for _ in range(5):
        P, Q = _plain_map(H, P, Q, trainable)
    with mock.patch.object(model, "_STEP_MAX0", 64.0):
        shortened = _em(H, P.copy(), Q, trainable, 3, TOL)
        with mock.patch.object(model, "_BACKTRACKS", 0):
            dropped = _em(H, P.copy(), Q, trainable, 3, TOL)
    assert shortened[2].log_likelihood > dropped[2].log_likelihood
    for P_end, _, _ in (shortened, dropped):
        assert np.array_equal(P_end[:, 0], P[:, 0])


def _quantity_fit(problem):
    H, P, Q, _, _ = problem
    return H, P, Q, np.zeros(P.shape[1], dtype=bool)


@settings(max_examples=60, deadline=None)
@given(problems(), st.integers(0, 3))
def test_em_map_cap_is_exact(problem, cap):
    H, P0, Q0, trainable, _ = problem
    P, Q, diag = _em(H, P0.copy(), Q0, trainable, cap, TOL)
    assert diag.n_iterations <= cap
    assert np.array_equal(P[:, ~trainable], P0[:, ~trainable])
    if cap == 0:
        assert diag.log_likelihood == _objective(H, P0, Q0, trainable)
    if cap == 1:  # one plain step, never an extrapolation
        P1, Q1 = _plain_map(H, P0, Q0, trainable)
        assert np.allclose(Q, Q1, rtol=1e-12, atol=0)
        assert np.allclose(P, P1, rtol=1e-12, atol=0)


@settings(max_examples=60, deadline=None)
@given(problems())
def test_converged_quantity_fit_meets_kkt(problem):
    """At the MLE, d(objective)/dq_k = (P.T @ (H/M))_k - 1 is 0 where q_k > 0
    and <= 0 where q_k is pinned at zero; the fit uses fit_quantities' tol."""
    H, P, Q0, trainable = _quantity_fit(problem)
    _, Q, diag = _em(H, P, Q0, trainable, 200000, 1e-12)
    assert diag.converged
    g = (H / np.maximum(Q @ P.T, 1e-300)) @ P
    active = Q > 1e-4 * np.maximum(Q.sum(axis=1, keepdims=True), 1.0)
    assert np.all(np.abs(g[active] - 1.0) <= KKT_EPS)
    assert np.all(g[~active] <= 1.0 + KKT_EPS)


@settings(max_examples=20, deadline=None)
@given(problems())
def test_quantity_fit_reaches_plain_em(problem):
    """SQUAREM run until the objective stops moving is at least as high as
    PLAIN_STEPS plain steps from the same start. (With tol > 0 the relative
    stopping rule can stop short of the MLE on a flat ridge, K = n_cells
    with a condition number ~1e3, as it does for plain steps.)"""
    H, P, Q0, trainable = _quantity_fit(problem)
    accelerated = _em(H, P, Q0, trainable, 200000, 0.0)[2].log_likelihood
    Q = Q0
    for _ in range(PLAIN_STEPS):
        Q = _plain_map(H, P, Q, trainable)[1]
    plain = _objective(H, P, Q, trainable)
    assert accelerated >= plain - _slack(plain)


@st.composite
def scored_fits(draw):
    """A random model, a Poisson histogram and quantities with some pinned at 0."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    n_bins = draw(st.integers(2, 8))
    K = draw(st.integers(1, 4))
    rng = np.random.default_rng(seed)
    binning = BinningConfig(n_adc_bins=n_bins)
    model = LpmModel(P=rng.dirichlet(np.ones(binning.n_cells), size=K).T,
                     n_control=1, binning=binning)
    q = rng.uniform(0.0, 1.0, size=K) * draw(st.sampled_from([10.0, 1e3, 1e5]))
    q[:draw(st.integers(0, K - 1))] = draw(st.sampled_from([0.0, 1e-12, 1e-9]))
    q = q[rng.permutation(K)]
    counts = rng.poisson(model.P @ q).reshape(n_bins, 2)
    h = Histogram2D(tumor_id="t", cohort="treated", counts=counts, binning=binning)
    chi2 = GoodnessOfFit(raw_chi2=0.0, dof=1,
                         chi2_per_dof=draw(st.sampled_from([0.5, 1.0, 3.0])))
    return model, h, q, chi2


@settings(max_examples=60, deadline=None)
@given(scored_fits())
def test_quantity_covariance_symmetric_psd(fit):
    model, h, q, chi2 = fit
    cov = quantity_covariance(model, h, q, chi2)
    C = cov.matrix
    assert np.array_equal(C, C.T)
    assert np.linalg.eigvalsh(C).min() >= -1e-9 * np.abs(C).max()
    pinned = cov.constrained
    assert np.all(C[pinned, :] == 0) and np.all(C[:, pinned] == 0)


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


# ---------------------------------------------------------------------------
# the selection sweep's early stop

@st.composite
def sweep_points(draw):
    """Candidates K = 1, 2, ... with random chi2/dof (nan included) and flags."""
    chi2 = st.one_of(st.just(math.nan), st.floats(0.0, 10.0))
    return [SelectionPoint(n_components=k, chi2_per_dof=draw(chi2),
                           degenerate=draw(st.sampled_from([False, False, True])),
                           converged=draw(st.sampled_from([True, True, False])))
            for k in range(1, draw(st.integers(2, 8)) + 1)]


@settings(max_examples=200, deadline=None)
@given(sweep_points())
def test_sweep_stops_where_the_rule_is_decided(points):
    trained = []

    def train(cohort, base_model, opts, k, residual):
        trained.append(k)
        return points[k - 1], k

    usable = [p.n_components for p in points if p.converged and not p.degenerate]
    with mock.patch.object(selection, "_train_candidate", train):
        if not usable:
            with pytest.raises(AnalysisError, match="all candidate models degenerate"):
                choose_component_count(points)
            with pytest.raises(AnalysisError, match="all candidate models degenerate"):
                select_components([], None, 1, len(points))
            assert trained == list(range(1, len(points) + 1))
            return
        curve, best = select_components([], None, 1, len(points))
    chosen = choose_component_count(points)
    successors = [k for k in usable if k > chosen]
    stop = successors[0] if successors else len(points)
    assert curve.chosen == best == chosen
    assert curve.points == points[:stop]
    assert trained == list(range(1, stop + 1))


# ---------------------------------------------------------------------------
# bin <-> voxel round trips through the CSV loaders

B_VALUES = st.lists(st.sampled_from([0.0, 50.0, 250.0, 500.0, 800.0, 1000.0]),
                    min_size=2, max_size=4, unique=True)
# tumor ids with CSV specials; quoted line breaks make records span lines
TUMOR_IDS = st.text(alphabet='ab1 ,"\n', min_size=1, max_size=5).filter(
    lambda s: s == s.strip())


@st.composite
def cohorts(draw, ids=TUMOR_IDS):
    """One to three non-empty random histograms on a random ADC grid."""
    n_bins = draw(st.integers(2, 8))
    adc_min = draw(st.sampled_from([0.0, 1e-4, 2.5e-4]))
    binning = BinningConfig(adc_min=adc_min,
                            adc_max=adc_min + draw(st.sampled_from([1e-3, 3e-3, 3.3e-3])),
                            n_adc_bins=n_bins)
    tumor_ids = draw(st.lists(ids, min_size=1, max_size=3, unique=True))
    hists = []
    for tumor_id in tumor_ids:
        counts = np.array(draw(st.lists(st.integers(0, 4), min_size=2 * n_bins,
                                        max_size=2 * n_bins)))
        counts[draw(st.integers(0, 2 * n_bins - 1))] += 1
        hists.append(Histogram2D(tumor_id=tumor_id, cohort=draw(st.sampled_from(COHORTS)),
                                 counts=counts.reshape(n_bins, 2), binning=binning))
    return binning, hists


# (csv.reader records, plain-chunk bytes) per chunk; a few bytes end blocks
# mid-line, between CR and LF and inside a last line with no line break
BLOCKS = (1, 2, 3, 7, histograms._CHUNK_BYTES)
CHUNKS = st.tuples(st.sampled_from([1, 2, 3, 7, histograms._CHUNK_ROWS]),
                   st.sampled_from(BLOCKS))


def _chunk_size(chunk):
    """Patch the loaders' chunk sizes to chunk, a (records, bytes) pair."""
    rows, block = chunk
    return mock.patch.multiple(histograms, _CHUNK_ROWS=rows, _CHUNK_BYTES=block)


def _assert_same_histograms(binned, hists):
    assert list(binned) == sorted(h.tumor_id for h in hists)
    for h in hists:
        back = binned[h.tumor_id]
        assert np.array_equal(back.counts, h.counts)
        assert (back.cohort, back.overflow) == (h.cohort, 0)


@settings(max_examples=40, deadline=None)
@given(cohorts(), CHUNKS)
def test_voxel_csv_roundtrip_bitwise(cohort, chunk):
    binning, hists = cohort
    with tempfile.TemporaryDirectory() as tmp, _chunk_size(chunk):
        path = Path(tmp) / "voxels.csv"
        write_voxel_csv(path, itertools.chain.from_iterable(map(histogram_to_voxels, hists)))
        loaded = load_voxel_csv(path)
    assert loaded.errors == []
    assert len(loaded.records) == sum(h.total for h in hists)
    _assert_same_histograms(bin_voxels(loaded.records, binning), hists)


@settings(max_examples=40, deadline=None)
@given(cohorts(), B_VALUES, st.sampled_from([1.0, 1500.0]), CHUNKS)
def test_signals_at_bin_centres_bin_back(cohort, b_values, s0, chunk):
    binning, hists = cohort
    with tempfile.TemporaryDirectory() as tmp, _chunk_size(chunk):
        path = Path(tmp) / "signals.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["tumor_id", "cohort", "timepoint", "voxel_id", "b", "signal"])
            for h in hists:
                for v, (tumor_id, cohort_, timepoint, adc) in enumerate(histogram_to_voxels(h)):
                    writer.writerows([tumor_id, cohort_, timepoint, f"v{v}", repr(b),
                                      repr(s0 * math.exp(-b * adc))] for b in b_values)
        loaded = load_signal_csv(path)
    assert loaded.errors == []
    _assert_same_histograms(bin_voxels(loaded.records, binning), hists)


def _csv_text(row):
    """One record as csv.writer writes it."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow(row)
    return buffer.getvalue()


BAD_ROWS = ["{t},{c},48,0.001", "{t},{c},0,n/a", "{t},{c},72,-0.001", "{t},{c},0,0",
            "{t},{c},72,nan", "{t},{c},0,inf", "{t},placebo,0,0.001", "{t},{c}",
            "{t},{c},72,"]


@settings(max_examples=40, deadline=None)
@given(cohorts(), CHUNKS, st.data())
def test_malformed_rows_reported_at_their_lines(cohort, chunk, data):
    binning, hists = cohort
    entries = [(_csv_text([t, c, {"baseline": "0", "followup": "72"}[tp], repr(a)]), False)
               for t, c, tp, a in itertools.chain.from_iterable(map(histogram_to_voxels, hists))]
    for _ in range(data.draw(st.integers(0, 8))):
        h = data.draw(st.sampled_from(hists))
        row = data.draw(st.sampled_from(BAD_ROWS + [""]))  # "" is a blank line
        t = '"' + h.tumor_id.replace('"', '""') + '"'
        entries.insert(data.draw(st.integers(0, len(entries))),
                       (row.format(t=t, c=h.cohort) + "\r\n", bool(row)))
    expected, line = [], 1
    for text, bad in entries:
        line += len(re.findall(r"\r\n|\r|\n", text))
        if bad:
            expected.append(line)
    with tempfile.TemporaryDirectory() as tmp, _chunk_size(chunk):
        path = Path(tmp) / "voxels.csv"
        with open(path, "w", newline="") as fh:
            fh.write("tumor_id,cohort,timepoint,adc\r\n")
            fh.writelines(text for text, _ in entries)
        loaded = load_voxel_csv(path)
    assert [line for line, _ in loaded.errors] == expected
    _assert_same_histograms(bin_voxels(loaded.records, binning), hists)


# ---------------------------------------------------------------------------
# both loaders against a row-by-row csv.reader reference

_TIMEPOINT_CODES = {"0": 0, "72": 1, "baseline": 0, "followup": 1}


def _parse(text):
    """(float(text), None), or (None, float()'s message)."""
    try:
        return float(text), None
    except ValueError as exc:
        return None, str(exc)


def _reference_records(path, columns):
    """(line, requested fields or a missing-fields message) per non-blank record."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        index = {name: i for i, name in enumerate(next(reader))}
        wanted = [index[c] for c in columns]
        for row in reader:
            if row:
                missing = [c for c, i in zip(columns, wanted) if i >= len(row)]
                yield reader.line_num, (f"missing fields {missing}" if missing
                                        else [row[i] for i in wanted])


def _reference_table(voxels, first_seen):
    """Columns, ids and cohorts of accepted (tumor, cohort, timepoint, adc) voxels;
    tumors keep the order in which first_seen met them."""
    cohort_of = {tumor: cohort for tumor, cohort, _, _ in voxels}
    ids = [tumor for tumor in first_seen if tumor in cohort_of]
    code = {tumor: k for k, tumor in enumerate(ids)}
    return ([np.array([code[v[0]] for v in voxels], dtype=np.int32),
             np.array([v[2] for v in voxels], dtype=np.int8),
             np.array([v[3] for v in voxels], dtype=np.float64)],
            tuple(ids), tuple(cohort_of[tumor] for tumor in ids))


def _voxel_message(timepoint, cohort, adc, parse_error):
    if timepoint.strip() not in _TIMEPOINT_CODES:
        return f"unknown timepoint {timepoint!r}"
    if parse_error is not None:
        return parse_error
    if cohort.strip() not in COHORTS:
        return f"unknown cohort {cohort.strip()!r}"
    if not (math.isfinite(adc) and adc > 0):
        return f"adc must be finite and > 0, got {adc}"
    return None


def reference_voxels(path):
    errors, voxels, first_seen = [], [], {}
    for line, fields in _reference_records(path, histograms._VOXEL_COLUMNS):
        if isinstance(fields, str):
            errors.append((line, fields))
            continue
        tumor, cohort, timepoint, text = fields
        first_seen.setdefault(tumor.strip(), None)
        adc, parse_error = _parse(text)
        message = _voxel_message(timepoint, cohort, adc, parse_error)
        if message is None:
            voxels.append((tumor.strip(), cohort.strip(),
                           _TIMEPOINT_CODES[timepoint.strip()], adc))
        else:
            errors.append((line, message))
    return _reference_table(voxels, first_seen), errors


def reference_signals(path):
    errors, groups = [], {}
    for line, fields in _reference_records(path, histograms._SIGNAL_COLUMNS):
        if isinstance(fields, str):
            errors.append((line, fields))
            continue
        *key, b_text, s_text = fields
        (b, b_error), (s, s_error) = _parse(b_text), _parse(s_text)
        if b_error or s_error:
            errors.append((line, b_error or s_error))
        else:
            groups.setdefault(tuple(k.strip() for k in key), []).append((b, s, line))
    voxels, first_seen = [], {}
    for (tumor, cohort, timepoint, _), rows in groups.items():
        first_seen.setdefault(tumor, None)
        b, s, lines = zip(*rows)
        try:
            adc = histograms.fit_adc(b, s)
        except ValueError as exc:
            errors.append((lines[0], str(exc)))
            continue
        message = _voxel_message(timepoint, cohort, adc, None)
        if message is None:
            voxels.append((tumor, cohort, _TIMEPOINT_CODES[timepoint], adc))
        else:
            errors.append((lines[0], message))
    return _reference_table(voxels, first_seen), errors


# plain ASCII ids, a non-ASCII one and one that needs quotes for its line break
IDS = ["t1", "t2", "ab", "t\u00fc", "t\n1"]
ADC = ["0.001", "2.5e-3", "1_0", "inf", "nan", "-0.001", "0", "x", "", "1e-3 ", "\x0b1e-3",
       "1e-3\x1c"]
B = ["0", "500", "1000", "1_0", "nan", "x"]
SIGNAL = ["1000", "606.5", "367.9", "0", "nan", "1e3", "y"]
PAD = st.sampled_from(["", " ", "\t", "\x1c"])  # str.strip() removes each of them


@st.composite
def csv_files(draw, signals):
    """(text of a voxel or signal CSV file, chunk sizes) mixing plain and unusual lines."""
    header = histograms._SIGNAL_COLUMNS if signals else histograms._VOXEL_COLUMNS
    cohort_of = {t: draw(st.sampled_from(COHORTS)) for t in IDS}
    text = ",".join(header) + draw(st.sampled_from(["\n", "\r\n"]))
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "short", "extra"]))
        if kind == "blank":
            text += draw(st.sampled_from(["\n", "\r\n", "\r"]))
            continue
        tumor = draw(st.sampled_from(IDS if draw(st.integers(0, 4)) == 0 else IDS[:3]))
        cohort = draw(st.sampled_from([cohort_of[tumor]] * 4 + ["placebo"]))
        fields = [tumor, cohort, draw(st.sampled_from(["0", "72", "baseline", "48"]))]
        if signals:
            fields += [draw(st.sampled_from(["v1", "v2"])), draw(st.sampled_from(B)),
                       draw(st.sampled_from(SIGNAL))]
        else:
            fields.append(draw(st.sampled_from(ADC)))
        fields = [draw(PAD) + f + draw(PAD) if draw(st.booleans()) else f for f in fields]
        if kind == "short":
            fields = fields[:draw(st.integers(1, len(fields) - 1))]
        elif kind == "extra":
            fields.append("extra")
        text += _csv_text(fields).rstrip("\r\n") + draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return text, (draw(st.integers(1, 3)), draw(st.sampled_from(BLOCKS)))


def _assert_loader_matches_reference(load, reference, text, chunk):
    with tempfile.TemporaryDirectory() as tmp, _chunk_size(chunk):
        path = Path(tmp) / "input.csv"
        path.write_bytes(text.encode())
        loaded = load(path)
        (columns, ids, cohorts_), errors = reference(path)
    table = loaded.records
    for got, want in zip((table.tumor, table.timepoint, table.adc), columns):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert (table.tumor_ids, table.cohorts) == (ids, cohorts_)
    assert loaded.errors == errors


@settings(max_examples=150, deadline=None)
@given(csv_files(signals=False))
def test_voxel_loader_matches_csv_reader_reference(case):
    _assert_loader_matches_reference(load_voxel_csv, reference_voxels, *case)


@settings(max_examples=150, deadline=None)
@given(csv_files(signals=True))
def test_signal_loader_matches_csv_reader_reference(case):
    _assert_loader_matches_reference(load_signal_csv, reference_signals, *case)


def _reader_chunks_not_taken(*args):
    raise AssertionError("csv.reader path taken")


@pytest.mark.parametrize("load, reference, text", [
    (load_voxel_csv, reference_voxels,
     "tumor_id,cohort,timepoint,adc\nt1,control,0,0.001\nt2,treated,72,0.002"),
    (load_voxel_csv, reference_voxels,
     "tumor_id,cohort,timepoint,adc\r\nt1,control,0,0.001\r\nt1,control,72,"),
    (load_signal_csv, reference_signals,
     "tumor_id,cohort,timepoint,voxel_id,b,signal\n"
     "t1,control,0,v1,0,1000\nt1,control,0,v1,500,600"),
    (load_signal_csv, reference_signals,
     "tumor_id,cohort,timepoint,voxel_id,b,signal\n"
     "t1,control,0,v1,0,1000\nt1,control,0,v1,500,600\nt1,control,0,v1,1000,"),
], ids=["voxels", "voxels-truncated-field", "signals", "signals-truncated-field"])
@pytest.mark.parametrize("chunk", [1, 2, 2048])
def test_plain_loaders_read_a_last_record_without_line_break(monkeypatch, load,
                                                             reference, text, chunk):
    monkeypatch.setattr(histograms, "_reader_chunks", _reader_chunks_not_taken)
    for block in BLOCKS:
        _assert_loader_matches_reference(load, reference, text, (chunk, block))

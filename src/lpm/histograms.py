"""Ingestion of per-voxel ADC data into fixed-grid 2D histograms.

The histogram grid is (ADC bin x timepoint), with timepoint 0 = baseline and
timepoint 1 = follow-up. Bins are half-open [lo, hi); the last bin is closed
so adc_max itself still lands in-grid.

Voxels are held as compact columns (``VoxelTable``): an int32 tumor code, an
int8 timepoint code and a float64 ADC, 13 bytes per voxel. CSV files are read
in chunks of records, each chunk's fields are mapped to integer codes and
float arrays in bulk, and binning is a single ``np.bincount``. A chunk of
plain lines (ASCII, with no quote or NUL) is split into fields with numpy;
from the first chunk that is not plain on, ``csv.reader`` reads the records.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (DegenerateDesignError, EmptyInputError, InputFormatError,
                     ParameterError)

COHORTS = ("control", "treated")
TIMEPOINTS = ("baseline", "followup")

# CSV files use the acquisition hour labels rather than the enum names.
_TIMEPOINT_LABELS = {"0": "baseline", "72": "followup",
                     "baseline": "baseline", "followup": "followup"}
_TIMEPOINT_HOURS = {"baseline": "0", "followup": "72"}
_TIMEPOINT_CODES = {label: TIMEPOINTS.index(name)
                    for label, name in _TIMEPOINT_LABELS.items()}
_COHORT_CODES = {name: k for k, name in enumerate(COHORTS)}

_CHUNK_ROWS = 2048  # CSV records (physical lines while they are plain) per chunk
_FIELD_MAX = 1024  # widest requested field, in bytes, that a plain chunk holds
_BLOCK_BYTES = 1 << 16  # bytes of a CSV decoded at a time once it is not plain


@dataclass(frozen=True)
class BinningConfig:
    """Uniform ADC bin grid over two timepoints (mm^2/s)."""

    adc_min: float = 0.0
    adc_max: float = 3.0e-3
    n_adc_bins: int = 32
    n_timepoints: int = 2

    def __post_init__(self):
        if not (self.adc_min < self.adc_max):
            raise ParameterError(f"adc_min must be < adc_max, "
                                 f"got [{self.adc_min}, {self.adc_max}]")
        if self.n_adc_bins < 2:
            raise ParameterError(f"n_adc_bins must be >= 2, got {self.n_adc_bins}")
        if self.n_timepoints != 2:
            raise ValueError("exactly two timepoints are supported")

    @property
    def width(self) -> float:
        return (self.adc_max - self.adc_min) / self.n_adc_bins

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.adc_min, self.adc_max, self.n_adc_bins + 1)

    @property
    def centers(self) -> np.ndarray:
        return self.adc_min + (np.arange(self.n_adc_bins) + 0.5) * self.width

    @property
    def n_cells(self) -> int:
        return self.n_adc_bins * self.n_timepoints

    def bin_index(self, adc: float):
        """Bin for an ADC value, or None when outside [adc_min, adc_max]."""
        if adc < self.adc_min or adc > self.adc_max:
            return None
        return min(int((adc - self.adc_min) / self.width), self.n_adc_bins - 1)

    def to_json_dict(self):
        return {"adc_min": self.adc_min, "adc_max": self.adc_max,
                "n_adc_bins": self.n_adc_bins}

    @classmethod
    def from_json_dict(cls, d) -> "BinningConfig":
        return cls(adc_min=d["adc_min"], adc_max=d["adc_max"],
                   n_adc_bins=d["n_adc_bins"])


@dataclass(frozen=True, eq=False)
class VoxelTable:
    """Accepted voxels as columns; voxel i is (tumor[i], timepoint[i], adc[i])."""

    tumor: np.ndarray  # int32 index into tumor_ids
    timepoint: np.ndarray  # int8 index into TIMEPOINTS
    adc: np.ndarray  # finite and > 0 (mm^2/s)
    tumor_ids: tuple
    cohorts: tuple  # cohort of each tumor in tumor_ids

    def __len__(self):
        return len(self.adc)


def _narrowest(bound):
    """The narrowest signed integer type that holds every value in 0..bound."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64)
                if bound <= np.iinfo(t).max)


def _str(field):
    """A raw field, or a tuple of them, as str; plain chunks hold ASCII bytes."""
    if isinstance(field, tuple):
        return tuple(map(_str, field))
    return field.decode() if isinstance(field, bytes) else field


def _codes(columns, code_of, dtype):
    """Integer code of each row; code_of runs once per distinct row.

    columns is one array of raw fields or a tuple of them, and code_of gets
    a row as a str or as a tuple of str. Rows are coded in order of first
    appearance, and each run of equal neighbouring rows is looked up once.
    A code that dtype cannot hold raises OverflowError.
    """
    if not isinstance(columns, tuple):
        columns = (columns,)
    n = len(columns[0])
    starts = np.zeros(n, dtype=bool)
    starts[:1] = True
    for column in columns:
        starts[1:] |= column[1:] != column[:-1]
    starts = np.flatnonzero(starts)
    keys = [column[starts].tolist() for column in columns]
    keys = keys[0] if len(keys) == 1 else list(zip(*keys))
    table = {v: code_of(_str(v)) for v in dict.fromkeys(keys)}
    codes = np.fromiter(map(table.__getitem__, keys), dtype, len(keys))
    return np.repeat(codes, np.diff(starts, append=n))


def _voxel_table(tumor, cohort, timepoint, adc, ids, path):
    """Assemble a VoxelTable, keeping only tumors that have voxels.

    cohort holds each voxel's cohort code; a tumor must have one cohort, and
    its id must be able to name its histogram file. tumor is an int32 and
    cohort and timepoint are int8 columns.
    """
    n = np.bincount(tumor, minlength=len(ids))
    n_treated = np.bincount(tumor[cohort == 1], minlength=len(ids))
    mixed = [ids[k] for k in np.flatnonzero((n_treated > 0) & (n_treated < n))]
    if mixed:
        raise InputFormatError(f"{path}: tumor {min(mixed)!r} is listed as both "
                               f"control and treated")
    keep = np.flatnonzero(n > 0)
    tumor_ids = tuple(ids[k] for k in keep)
    unsafe = [t for t in tumor_ids if t in ("", ".", "..") or "/" in t or "\0" in t]
    if unsafe:
        raise InputFormatError(f"{path}: tumor id {unsafe[0]!r} cannot name a "
                               f"histogram file")
    code = np.zeros(len(ids), dtype=np.int32)
    code[keep] = np.arange(len(keep))
    return VoxelTable(tumor=code[tumor], timepoint=timepoint, adc=adc, tumor_ids=tumor_ids,
                      cohorts=tuple(COHORTS[int(n_treated[k] > 0)] for k in keep))


@dataclass
class Histogram2D:
    """Binned (ADC x timepoint) frequency counts for one tumor."""

    tumor_id: str
    cohort: str
    counts: np.ndarray  # (n_adc_bins, 2) non-negative ints
    binning: BinningConfig
    overflow: int = 0
    warnings: tuple = ()

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.shape != (self.binning.n_adc_bins, 2):
            raise ValueError(f"counts shape {counts.shape} does not match binning")
        if np.any(counts < 0) or not np.all(counts == np.floor(counts)):
            raise ValueError("counts must be non-negative integers")
        self.counts = counts.astype(np.int64)
        self.counts.setflags(write=False)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def to_json_dict(self):
        d = {
            "tumor_id": self.tumor_id,
            "cohort": self.cohort,
            "binning": self.binning.to_json_dict(),
            "counts": self.counts.tolist(),
            "overflow": int(self.overflow),
        }
        if self.warnings:  # absent when empty: warning-free files keep their bytes
            d["warnings"] = list(self.warnings)
        return d

    @classmethod
    def from_json_dict(cls, d) -> "Histogram2D":
        return cls(tumor_id=d["tumor_id"], cohort=d["cohort"],
                   counts=np.asarray(d["counts"], dtype=np.int64),
                   binning=BinningConfig.from_json_dict(d["binning"]),
                   overflow=int(d.get("overflow", 0)),
                   warnings=tuple(d.get("warnings", ())))


# failed checks of a signal group, in the order they are tested
_GROUP_PROBLEMS = (None,
                   (DegenerateDesignError, "need at least 2 distinct b-values"),
                   (ValueError, "b-values must be non-negative"),
                   (ValueError, "signals must be positive for the log-linear fit"),
                   (ValueError, "b-values and signals must be finite"))


def _fit_groups(group, b, s, n_groups):
    """Log-linear least squares ln(S) = ln(S0) - b*D for every group at once.

    group[i] in [0, n_groups) names the voxel of sample (b[i], s[i]). The
    slope comes from centred sums, each one np.bincount over all samples.
    Returns (D, S0, problem): problem[g] indexes _GROUP_PROBLEMS, 0 when
    group g passed every check.
    """
    b_lo = np.full(n_groups, np.inf)
    b_hi = np.full(n_groups, -np.inf)
    s_lo = np.full(n_groups, np.inf)
    np.fmin.at(b_lo, group, b)
    np.fmax.at(b_hi, group, b)
    np.fmin.at(s_lo, group, s)
    finite = np.bincount(group, ~(np.isfinite(b) & np.isfinite(s)), n_groups) == 0
    problem = np.select([~(b_lo < b_hi), b_lo < 0, s_lo <= 0, ~finite], [1, 2, 3, 4], 0)
    n = np.bincount(group, minlength=n_groups)
    y = np.log(np.where(s > 0, s, 1.0))
    with np.errstate(all="ignore"):  # rejected groups may divide by zero
        b_mean = np.bincount(group, b, n_groups) / n
        y_mean = np.bincount(group, y, n_groups) / n
        db = b - b_mean[group]
        slope = (np.bincount(group, db * (y - y_mean[group]), n_groups)
                 / np.bincount(group, db * db, n_groups))
        return -slope, np.exp(y_mean - slope * b_mean), problem


def fit_adc(b_values, signals) -> float:
    """ADC of one voxel from a mono-exponential signal decay.

    Fits ln(S) = ln(S0) - b*D by least squares and returns D (mm^2/s).
    Fewer than two distinct b-values raise DegenerateDesignError; negative
    b-values, non-positive signals or non-finite values raise ValueError.
    """
    d, _ = fit_adc_with_s0(b_values, signals)
    return d


def fit_adc_with_s0(b_values, signals):
    """Like fit_adc but also returns the estimated zero-b signal S0."""
    b = np.asarray(b_values, dtype=float)
    s = np.asarray(signals, dtype=float)
    if b.ndim != 1 or b.shape != s.shape:
        raise ValueError("b_values and signals must have the same length")
    d, s0, problem = _fit_groups(np.zeros(b.size, dtype=np.intp), b, s, 1)
    if problem[0]:
        error, message = _GROUP_PROBLEMS[problem[0]]
        raise error(message)
    return float(d[0]), float(s0[0])


def bin_voxels(table: VoxelTable, config: BinningConfig):
    """Bin a voxel table into one Histogram2D per tumor, sorted by tumor id.

    Out-of-range ADC values are tallied into each histogram's ``overflow``
    field rather than dropped. Tumors with voxels at only one timepoint get
    a warning attached.
    """
    if len(table) == 0:
        raise EmptyInputError("no voxel records to bin")
    nb = config.n_adc_bins
    adc = table.adc
    n_tumors = len(table.tumor_ids)
    size = n_tumors * (nb + 1) * 2
    # the narrowest signed type that holds the largest flat index, size - 1;
    # no partial result below exceeds it, so none can wrap
    dtype = _narrowest(size - 1)
    # int() of the bin coordinate, the closed last bin, and slot nb for overflow
    x = adc - config.adc_min
    x /= config.width
    flat = np.clip(x, 0, nb - 1, out=x).astype(dtype)
    del x
    flat[(adc < config.adc_min) | (adc > config.adc_max)] = nb
    flat += table.tumor.astype(dtype) * (nb + 1)
    flat *= 2
    flat += table.timepoint
    counts = np.bincount(flat, minlength=size).reshape(n_tumors, nb + 1, 2)
    out = {}
    for k in sorted(range(n_tumors), key=table.tumor_ids.__getitem__):
        tumor_id = table.tumor_ids[k]
        grid = counts[k, :nb]
        warnings = ()
        if grid.sum(axis=0).min() == 0:
            warnings = (f"tumor {tumor_id}: voxels at only one timepoint",)
        out[tumor_id] = Histogram2D(tumor_id=tumor_id, cohort=table.cohorts[k],
                                    counts=grid, binning=config,
                                    overflow=int(counts[k, nb].sum()), warnings=warnings)
    return out


@dataclass
class VoxelLoadResult:
    records: VoxelTable  # the accepted voxels
    errors: list  # (line_number, message), in file order


_VOXEL_COLUMNS = ["tumor_id", "cohort", "timepoint", "adc"]


def _csv_chunks(path, columns):
    """Stream a CSV file in chunks of at most _CHUNK_ROWS records.

    Yields (lines, fields, short) per chunk: the line number of each record
    with every requested field, one array of raw fields per requested
    column, and (line, message) for the records that lack one. Blank lines
    are skipped. A record's line number is the physical line it ends on.

    A chunk of plain lines (ASCII, with no quote or NUL, and every CR
    followed by LF) is split with numpy, and its fields are ASCII bytes.
    From the first chunk that is not plain to the end of the file,
    csv.reader reads the records, and their fields are str objects.
    """
    with open(path, "rb") as fh:
        header = fh.readline()
        if not header or _split_plain(header) is None:
            fh.seek(0)
            yield from _reader_chunks(path, fh, 0, columns, None)
            return
        text = header.rstrip(b"\r\n").decode()
        wanted = _wanted(path, columns, text.split(",") if text else [])
        offset, base = len(header), 1
        while lines := list(islice(fh, _CHUNK_ROWS)):
            buf = b"".join(lines)
            chunk = _plain_chunk(buf, base, columns, wanted)
            if chunk is None:
                fh.seek(offset)
                yield from _reader_chunks(path, fh, base, columns, wanted)
                return
            yield chunk
            offset += len(buf)
            base += len(lines)


def _wanted(path, columns, header):
    """Index of each requested column in the header's field names."""
    if header is None:
        raise InputFormatError(f"{path}: empty file")
    index = {name: i for i, name in enumerate(header)}
    missing = [c for c in columns if c not in index]
    if missing:
        raise InputFormatError(f"{path}: missing columns {missing}")
    return [index[c] for c in columns]


def _missing(columns, wanted, n_fields):
    """Rejection message of a record with n_fields fields."""
    return f"missing fields {[c for c, i in zip(columns, wanted) if i >= n_fields]}"


def _split_plain(buf):
    """Where the lines and commas of a plain chunk are, or None when it is not plain.

    Returns (data, start, stop, comma): the chunk as uint8, where each line's
    text begins and ends (its LF or CRLF left out), and every comma.
    """
    data = np.frombuffer(buf, np.uint8)
    cr = np.flatnonzero(data == 13)
    if (data.max() > 127 or not data.all() or (data == 34).any()
            or (data[np.minimum(cr + 1, len(data) - 1)] != 10).any()):
        return None
    stop = np.flatnonzero(data == 10)
    if data[-1] != 10:
        stop = np.append(stop, len(data))
    start = np.append(0, stop[:-1] + 1)
    stop -= data[stop - 1] == 13
    if (stop - start).max() > csv.field_size_limit():
        return None  # csv.reader rejects such a field
    return data, start, stop, np.flatnonzero(data == 44)


def _plain_chunk(buf, base, columns, wanted):
    """(lines, fields, short) of a chunk whose first line is physical line
    base + 1, or None when the chunk is not plain or a field is too wide."""
    split = _split_plain(buf)
    if split is None:
        return None
    data, start, stop, comma = split
    first = np.searchsorted(comma, start)  # each line's first comma
    n_fields = np.where(start < stop, np.searchsorted(comma, stop) - first + 1, 0)
    width = max(wanted) + 1
    rows = np.flatnonzero(n_fields >= width)
    first = first[rows]
    comma = np.append(comma, len(data))
    bounds = [(start[rows] if i == 0 else comma[first + i - 1] + 1,
               np.minimum(comma[first + i], stop[rows])) for i in wanted]
    if any((hi - lo).max(initial=0) > _FIELD_MAX for lo, hi in bounds):
        return None
    padded = np.append(data, np.zeros(_FIELD_MAX, np.uint8))
    short = [(base + 1 + j, _missing(columns, wanted, n_fields[j]))
             for j in np.flatnonzero((n_fields > 0) & (n_fields < width)).tolist()]
    return base + 1 + rows, [_fixed_width(padded, lo, hi) for lo, hi in bounds], short


def _fixed_width(data, lo, hi):
    """data[lo[i]:hi[i]] for every i, as one fixed-width bytes array."""
    size = hi - lo
    width = max(int(size.max(initial=0)), 1)
    fields = sliding_window_view(data, width)[lo]
    fields *= np.arange(width) < size[:, None]  # zero the bytes past each field
    return fields.view(f"S{width}").ravel()


def _text_blocks(path, fh, base):
    """Lists of the lines of fh, whose next line is physical line base + 1, as
    open(path, encoding="utf-8", newline="") reads them; an undecodable byte
    is an InputFormatError naming its line. Blocks are cut after a line
    break, so no character or CRLF is split."""
    rest = b""
    while True:
        block = fh.read(max(_BLOCK_BYTES, len(rest)))  # doubles through a long line
        data = rest + block
        # a CR that ends the block may be the first half of a CRLF
        cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, -1)) + 1 if block else len(data)
        data, rest = data[:cut], data[cut:]
        try:
            lines = io.StringIO(data.decode("utf-8"), newline="").readlines()
        except UnicodeDecodeError as exc:
            head = data[:exc.start]
            line = base + 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
            raise InputFormatError(f"{path}: line {line}: cannot decode byte 0x"
                                   f"{data[exc.start]:02x} as UTF-8: {exc.reason}") from None
        yield lines
        base += len(lines)
        if not block:
            return


def _reader_chunks(path, fh, base, columns, wanted):
    """Chunks that csv.reader reads from fh, whose next line is physical
    line base + 1; the header is read first when wanted is None."""
    reader = csv.reader(chain.from_iterable(_text_blocks(path, fh, base)))
    try:
        if wanted is None:
            wanted = _wanted(path, columns, next(reader, None))
        width = max(wanted) + 1
        while True:
            rows, lines = [], []
            for row in islice(reader, _CHUNK_ROWS):
                rows.append(row)
                lines.append(reader.line_num)  # the line the record ends on
            if not rows:
                return
            lines = base + np.array(lines)
            short = []
            if min(map(len, rows)) < width:
                short = [(int(line), _missing(columns, wanted, len(row)))
                         for line, row in zip(lines, rows) if 0 < len(row) < width]
                keep = [j for j, row in enumerate(rows) if len(row) >= width]
                rows = [rows[j] for j in keep]
                lines = lines[keep]
            yield lines, [np.fromiter(map(itemgetter(i), rows), object, len(rows))
                          for i in wanted], short
    except csv.Error as exc:
        raise InputFormatError(f"{path}: line {base + reader.line_num}: {exc}") from None


def _floats(fields):
    """(floats, mask of the fields float() rejects, those set to NaN)."""
    try:
        return fields.astype(np.float64), np.zeros(len(fields), dtype=bool)
    except ValueError:
        values = list(map(_str, fields.tolist()))
        failed = np.array([_float_error(v) is not None for v in values], dtype=bool)
        return np.array([math.nan if f else float(v) for v, f in zip(values, failed)],
                        dtype=float), failed


def _float_error(value):
    """float()'s message for a value it rejects, else None."""
    try:
        float(value)
    except ValueError as exc:
        return str(exc)
    return None


def _voxel_problem(timepoint, cohort, adc):
    """Why a voxel was rejected, by the first check its raw fields fail."""
    if timepoint.strip() not in _TIMEPOINT_LABELS:
        return f"unknown timepoint {timepoint!r}"
    message = _float_error(adc)
    if message is not None:
        return message
    if cohort.strip() not in _COHORT_CODES:
        return f"unknown cohort {cohort.strip()!r}"
    return f"adc must be finite and > 0, got {float(adc)}"


def _cat(parts, dtype):
    return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)


def load_voxel_csv(path) -> VoxelLoadResult:
    """Load a voxel CSV as a VoxelTable; malformed rows are reported with line numbers.

    A tumor listed under both cohorts raises InputFormatError.
    """
    errors = []
    index = {}  # tumor id -> code
    parts = [[], [], [], []]
    for lines, (tumor, cohort, timepoint, adc), short in _csv_chunks(path, _VOXEL_COLUMNS):
        t = _codes(timepoint, lambda v: _TIMEPOINT_CODES.get(v.strip(), -1), np.int8)
        c = _codes(cohort, lambda v: _COHORT_CODES.get(v.strip(), -1), np.int8)
        k = _codes(tumor, lambda v: index.setdefault(v.strip(), len(index)), np.int32)
        x, _ = _floats(adc)
        ok = (t >= 0) & (c >= 0) & np.isfinite(x) & (x > 0)
        bad = np.flatnonzero(~ok)
        bad = zip(lines[bad].tolist(), *(map(_str, f[bad].tolist())
                                         for f in (timepoint, cohort, adc)))
        errors.extend(sorted(short + [(line, _voxel_problem(*f)) for line, *f in bad]))
        for part, column in zip(parts, (k, c, t, x)):
            part.append(column[ok])
    # popped, so each column's chunks are freed once they are joined
    k, c, t, x = (_cat(parts.pop(0), dtype)
                  for dtype in (np.int32, np.int8, np.int8, float))
    table = _voxel_table(k, c, t, x, list(index), path)
    return VoxelLoadResult(records=table, errors=errors)


def write_voxel_csv(path, rows):
    """Write (tumor_id, cohort, timepoint, adc) rows, timepoints as hour labels."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_VOXEL_COLUMNS)
        writer.writerows((tumor_id, cohort, _TIMEPOINT_HOURS[timepoint], repr(adc))
                         for tumor_id, cohort, timepoint, adc in rows)


_SIGNAL_COLUMNS = ["tumor_id", "cohort", "timepoint", "voxel_id", "b", "signal"]


def load_signal_csv(path) -> VoxelLoadResult:
    """Load a signal CSV and fit each voxel group's ADC into a VoxelTable.

    Rows are grouped by (tumor_id, cohort, timepoint, voxel_id) and every
    group is fitted in one pass. Rows whose b or signal does not parse are
    reported first, then groups that fail validation, under the line number
    of their first row.
    """
    errors = []
    groups = {}  # (tumor_id, cohort, timepoint, voxel_id) -> group code
    parts = [[], [], [], []]  # per row: group code, b, signal; per group: first line
    for lines, (*key, b_raw, s_raw), short in _csv_chunks(path, _SIGNAL_COLUMNS):
        b, b_bad = _floats(b_raw)
        s, s_bad = _floats(s_raw)
        ok = ~(b_bad | s_bad)
        bad = np.flatnonzero(~ok)
        bad = zip(lines[bad].tolist(), *(map(_str, f[bad].tolist()) for f in (b_raw, s_raw)))
        errors.extend(sorted(short + [(line, _float_error(b) or _float_error(s))
                                      for line, b, s in bad]))
        known = len(groups)
        g = _codes(tuple(column[ok] for column in key),
                   lambda v: groups.setdefault(tuple(map(str.strip, v)), len(groups)),
                   np.int64)
        code, first = np.unique(g, return_index=True)
        # codes follow first appearance: the chunk's new groups start at their first rows
        for part, column in zip(parts, (g.astype(_narrowest(len(groups))), b[ok], s[ok],
                                        lines[ok][first[code >= known]])):
            part.append(column)
    # each group's tumor id, cohort and timepoint; the keys and voxel ids are
    # freed before the fit
    fields = list(zip(*groups)) or [()] * 4
    groups.clear()
    tumor, cohort, timepoint = (np.array(f, dtype=object) for f in fields[:3])
    del fields
    # popped, so each column's chunks are freed once they are joined
    group, b, s, first_line = (_cat(parts.pop(0), dtype)
                               for dtype in (np.int8, float, float, np.intp))
    adc, _, problem = _fit_groups(group, b, s, len(tumor))
    t = _codes(timepoint, lambda v: _TIMEPOINT_CODES.get(v, -1), np.int8)
    c = _codes(cohort, lambda v: _COHORT_CODES.get(v, -1), np.int8)
    ok = (problem == 0) & (t >= 0) & (c >= 0) & np.isfinite(adc) & (adc > 0)
    errors.extend((int(first_line[j]), _GROUP_PROBLEMS[problem[j]][1] if problem[j]
                   else _voxel_problem(timepoint[j], cohort[j], repr(float(adc[j]))))
                  for j in np.flatnonzero(~ok))
    index = {}
    k = _codes(tumor, lambda v: index.setdefault(v, len(index)), np.int32)
    table = _voxel_table(k[ok], c[ok], t[ok], adc[ok], list(index), path)
    return VoxelLoadResult(records=table, errors=errors)


def write_histogram_json(path, h: Histogram2D):
    with open(path, "w") as fh:
        json.dump(h.to_json_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_histogram_json(path) -> Histogram2D:
    with open(path) as fh:
        return Histogram2D.from_json_dict(json.load(fh))

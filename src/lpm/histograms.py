"""Ingestion of per-voxel ADC data into fixed-grid 2D histograms.

The histogram grid is (ADC bin x timepoint), with timepoint 0 = baseline and
timepoint 1 = follow-up. Bins are half-open [lo, hi); the last bin is closed
so adc_max itself still lands in-grid.

Voxels are held as compact columns (``VoxelTable``): an int32 tumor code, an
int8 timepoint code and a float64 ADC, 13 bytes per voxel. CSV files are read
in chunks, and binning is a single ``np.bincount``. A chunk of plain lines
(ASCII, with no quote or NUL), read as a block of bytes that ends at a line
break, is split into fields with numpy; from the first chunk that is not
plain on, ``csv.reader`` reads the records.
Every tumor, cohort and timepoint column is coded one way: each
stripped field gets its int32 code in a dict that grows in first-appearance
order, and one lookup array maps cohort and timepoint codes to canonical
ones, -1 for an unknown label. A signal voxel is the combination of its
tumor, cohort and timepoint codes and its stripped voxel id. Numbers are
parsed into float arrays in bulk.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import math
import numbers
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError, read_input

COHORTS = ("control", "treated")
TIMEPOINTS = ("baseline", "followup")

# CSV files use the acquisition hour labels rather than the enum names.
_TIMEPOINT_HOURS = {"baseline": "0", "followup": "72"}
_TIMEPOINT_CODES = {"0": 0, "72": 1, "baseline": 0, "followup": 1}  # index into TIMEPOINTS
_COHORT_CODES = {name: k for k, name in enumerate(COHORTS)}

_CHUNK_BYTES = 1 << 17  # bytes per plain chunk, before the rest of its last line
_CHUNK_ROWS = 2048  # records per chunk that csv.reader reads
_FIELD_MAX = 1024  # widest requested field, in bytes, that a plain chunk holds


@dataclass(frozen=True)
class BinningConfig:
    """Uniform ADC bin grid over two timepoints (mm^2/s)."""

    adc_min: float = 0.0
    adc_max: float = 3.0e-3
    n_adc_bins: int = 32

    def __post_init__(self):
        # bool is an int, and JSON may hold a bound as a string or a count
        # as a float; each would pass the range checks and fail later
        for name in ("adc_min", "adc_max"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise InputError(f"{name} must be a finite number, got {value!r}")
        if (isinstance(self.n_adc_bins, bool)
                or not isinstance(self.n_adc_bins, numbers.Integral)):
            raise InputError(f"n_adc_bins must be an integer, "
                             f"got {self.n_adc_bins!r}")
        if not (self.adc_min < self.adc_max):
            raise InputError(f"adc_min must be < adc_max, "
                             f"got [{self.adc_min}, {self.adc_max}]")
        if self.n_adc_bins < 2:
            raise InputError(f"n_adc_bins must be >= 2, got {self.n_adc_bins}")
        # finite bounds can still span more than a float holds, or a range
        # too narrow to split, and binning would divide by an inf or 0 width
        if not 0 < self.width < math.inf:
            raise InputError(f"[{self.adc_min}, {self.adc_max}] in "
                             f"{self.n_adc_bins} bins gives bin width {self.width}")

    @property
    def width(self) -> float:
        return (self.adc_max - self.adc_min) / self.n_adc_bins

    @property
    def centers(self) -> np.ndarray:
        return self.adc_min + (np.arange(self.n_adc_bins) + 0.5) * self.width

    @property
    def n_cells(self) -> int:
        return self.n_adc_bins * len(TIMEPOINTS)

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
    """A raw field as str; plain chunks hold ASCII bytes."""
    return field.decode() if isinstance(field, bytes) else field


def _runs(column, new=False):
    """The first row of each run of equal neighbouring fields in column (a run
    also starts where new is True), and each run's field as a stripped str."""
    starts = np.flatnonzero(np.append(len(column) > 0, column[1:] != column[:-1]) | new)
    return starts, [_str(v).strip() for v in column[starts].tolist()]


def _codes(column, labels, dtype):
    """Code of each row's stripped field in labels, a dict from label to code.

    labels grows in place: a label it lacks gets the next code, so codes
    follow first appearance. Each run of equal neighbouring fields is looked
    up once.
    """
    starts, keys = _runs(column)
    codes = np.fromiter((labels.setdefault(k, len(labels)) for k in keys), dtype, len(keys))
    return np.repeat(codes, np.diff(starts, append=len(column)))


def _label_codes(canonical):
    """A label dict that codes canonical's labels first, and the array of their
    canonical codes and a final -1, which take(mode="clip") gives any later label."""
    return (dict(zip(canonical, range(len(canonical)))),
            np.array([*canonical.values(), -1], dtype=np.int8))


def check_tumor_id(tumor_id, where=""):
    """Raise InputError, its message prefixed with where, unless tumor_id is a
    str that can name its histogram file and is not "combined", the name of
    the cohort row in response_*.csv."""
    if not isinstance(tumor_id, str):
        raise InputError(f"{where}tumor id must be a string, got {tumor_id!r}")
    if tumor_id in ("", ".", "..") or "/" in tumor_id or "\0" in tumor_id:
        raise InputError(f"{where}tumor id {tumor_id!r} cannot name a histogram file")
    if tumor_id == "combined":
        raise InputError(f"{where}tumor id 'combined' is reserved for the cohort row "
                         f"of response files")


def shown_id(tumor_id) -> str:
    """tumor_id as printed lines and SVG labels show it: its repr() when
    str.isprintable() rejects it (a line break, a control character)."""
    return tumor_id if tumor_id.isprintable() else repr(tumor_id)


def _voxel_table(tumor, cohort, timepoint, adc, ids, path):
    """Assemble a VoxelTable, keeping only tumors that have voxels.

    cohort holds each voxel's cohort code; a tumor must have one cohort, and
    its id must pass check_tumor_id. tumor is an int32 and cohort and
    timepoint are int8 columns.
    """
    n = np.bincount(tumor, minlength=len(ids))
    n_treated = np.bincount(tumor[cohort == 1], minlength=len(ids))
    mixed = [ids[k] for k in np.flatnonzero((n_treated > 0) & (n_treated < n))]
    if mixed:
        raise InputError(f"{path}: tumor {min(mixed)!r} is listed as both "
                         f"control and treated")
    keep = np.flatnonzero(n > 0)
    tumor_ids = tuple(ids[k] for k in keep)
    for tumor_id in tumor_ids:
        check_tumor_id(tumor_id, f"{path}: ")
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
        check_tumor_id(self.tumor_id)
        if not isinstance(self.cohort, str):
            raise InputError(f"cohort must be a string, got {self.cohort!r}")
        if (isinstance(self.overflow, bool) or not isinstance(self.overflow, numbers.Integral)
                or self.overflow < 0):
            raise InputError(f"overflow must be an integer >= 0, got {self.overflow!r}")
        counts = np.asarray(self.counts)
        if counts.shape != (self.binning.n_adc_bins, 2):
            raise ValueError(f"counts shape {counts.shape} does not match binning")
        # checked before the cast; integers beyond int64 arrive as objects,
        # and the bound on the sum keeps `total` from overflowing
        if counts.dtype.kind not in "iuf" or not (
                np.all((counts >= 0) & (counts == np.floor(counts)))
                and counts.sum(dtype=float) < 2 ** 63):
            raise ValueError("counts must be non-negative integers summing below 2**63")
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
                   counts=d["counts"],
                   binning=BinningConfig.from_json_dict(d["binning"]),
                   overflow=d.get("overflow", 0),
                   warnings=tuple(d.get("warnings", ())))


# failed checks of a signal group, in the order they are tested
_GROUP_PROBLEMS = (None,
                   "need at least 2 distinct b-values",
                   "b-values must be non-negative",
                   "signals must be positive for the log-linear fit",
                   "b-values and signals must be finite")


def _fit_groups(group, b, s, n_groups):
    """Log-linear least squares ln(S) = ln(S0) - b*D for every group at once.

    group[i] in [0, n_groups) names the voxel of sample (b[i], s[i]). The
    slope comes from centred sums, each one np.bincount over all samples.
    Returns (D, problem): problem[g] indexes _GROUP_PROBLEMS, 0 when group g
    passed every check.
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
        return -slope, problem


def fit_adc(b_values, signals) -> float:
    """ADC of one voxel from a mono-exponential signal decay.

    Fits ln(S) = ln(S0) - b*D by least squares and returns D (mm^2/s).
    Fewer than two distinct b-values, negative b-values, non-positive
    signals or non-finite values raise InputError.
    """
    b = np.asarray(b_values, dtype=float)
    s = np.asarray(signals, dtype=float)
    if b.ndim != 1 or b.shape != s.shape:
        raise ValueError("b_values and signals must have the same length")
    d, problem = _fit_groups(np.zeros(b.size, dtype=np.intp), b, s, 1)
    if problem[0]:
        raise InputError(_GROUP_PROBLEMS[problem[0]])
    return float(d[0])


def bin_voxels(table: VoxelTable, config: BinningConfig):
    """Bin a voxel table into one Histogram2D per tumor, sorted by tumor id.

    Out-of-range ADC values are tallied into each histogram's ``overflow``
    field rather than dropped. Tumors with voxels at only one timepoint get
    a warning attached.
    """
    if len(table) == 0:
        raise InputError("no voxel records to bin")
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
    """Stream a CSV file in chunks.

    Yields (lines, fields, short) per chunk: the line number of each record
    with every requested field, one array of raw fields per requested
    column, and (line, message) for the records that lack one. Blank lines
    are skipped. A record's line number is the physical line it ends on.

    A chunk is _CHUNK_BYTES bytes and the rest of the line they end in.
    A chunk of plain lines (ASCII, with no quote or NUL, and every CR
    followed by LF) is split with numpy, and its fields are ASCII bytes.
    From the first chunk that is not plain to the end of the file,
    csv.reader reads _CHUNK_ROWS records at a time, and their fields are
    str objects. A UTF-8 byte-order mark before the header is dropped.
    """
    with open(path, "rb") as fh:
        header = fh.readline()
        bom = len(codecs.BOM_UTF8) if header.startswith(codecs.BOM_UTF8) else 0
        header = header[bom:]
        if not header or _split_plain(header) is None:
            yield from _reader_chunks(path, fh, bom, 0, columns, None)
            return
        text = header.rstrip(b"\r\n").decode()
        wanted = _wanted(path, columns, text.split(",") if text else [])
        offset, base = bom + len(header), 1
        while buf := fh.read(_CHUNK_BYTES) + fh.readline():
            chunk = _plain_chunk(buf, base, columns, wanted)
            if chunk is None:
                yield from _reader_chunks(path, fh, offset, base, columns, wanted)
                return
            yield chunk
            offset += len(buf)
            base += buf.count(b"\n")  # each line but the file's last ends in LF


def _wanted(path, columns, header):
    """Index of each requested column in the header's stripped field names."""
    if header is None:
        raise InputError(f"{path}: empty file")
    index = {name.strip(): i for i, name in enumerate(header)}
    missing = [c for c in columns if c not in index]
    if missing:
        raise InputError(f"{path}: missing columns {missing}")
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
    if size.min(initial=width) < width:
        fields *= np.arange(width) < size[:, None]  # zero the bytes past each field
    return fields.view(f"S{width}").ravel()


def _reader_chunks(path, fh, start, base, columns, wanted):
    """Chunks that csv.reader reads from fh from byte start on, where physical
    line base + 1 begins; the header is read first when wanted is None. An
    undecodable byte is an InputError naming its line."""
    fh.seek(start)
    text = io.TextIOWrapper(fh, encoding="utf-8", newline="")
    reader = csv.reader(text)
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
        raise InputError(f"{path}: line {base + reader.line_num}: {exc}") from None
    except UnicodeDecodeError:  # raised ahead of csv.reader; the raw bytes tell its line
        fh.seek(start)
        data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = base + len(data[:exc.start + 1].splitlines())  # up to the bad byte
            raise InputError(f"{path}: line {line}: cannot decode byte 0x"
                             f"{data[exc.start]:02x} as UTF-8: {exc.reason}") from None
        raise
    finally:
        text.detach()  # fh stays open for _csv_chunks to close


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
    if timepoint.strip() not in _TIMEPOINT_CODES:
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

    A tumor listed under both cohorts raises InputError.
    """
    errors = []
    tumors = {}  # tumor id -> code
    cohorts, cohort_of = _label_codes(_COHORT_CODES)
    timepoints, timepoint_of = _label_codes(_TIMEPOINT_CODES)
    parts = [[], [], [], []]
    for lines, (tumor, cohort, timepoint, adc), short in _csv_chunks(path, _VOXEL_COLUMNS):
        t = timepoint_of.take(_codes(timepoint, timepoints, np.int32), mode="clip")
        c = cohort_of.take(_codes(cohort, cohorts, np.int32), mode="clip")
        k = _codes(tumor, tumors, np.int32)
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
    table = _voxel_table(k, c, t, x, list(tumors), path)
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
    tumors = {}  # tumor id -> code
    cohorts, cohort_of = _label_codes(_COHORT_CODES)
    timepoints, timepoint_of = _label_codes(_TIMEPOINT_CODES)
    groups = {}  # (tumor, cohort, timepoint codes, stripped voxel id) -> group code
    parts = [[] for _ in range(7)]  # per row: group, b, signal; per group: line, labels
    for lines, (*key, voxel, b_raw, s_raw), short in _csv_chunks(path, _SIGNAL_COLUMNS):
        b, b_bad = _floats(b_raw)
        s, s_bad = _floats(s_raw)
        ok = ~(b_bad | s_bad)
        bad = np.flatnonzero(~ok)
        bad = zip(lines[bad].tolist(), *(map(_str, f[bad].tolist()) for f in (b_raw, s_raw)))
        errors.extend(sorted(short + [(line, _float_error(b) or _float_error(s))
                                      for line, b, s in bad]))
        label = np.array([_codes(column[ok], labels, np.int32) for column, labels
                          in zip(key, (tumors, cohorts, timepoints))])
        # the label codes and stripped voxel id of each run of equal rows
        starts, voxels = _runs(voxel[ok], np.diff(label, prepend=-1).any(axis=0))
        runs = zip(*label[:, starts].tolist(), voxels)
        known = len(groups)
        g = np.fromiter((groups.setdefault(run, len(groups)) for run in runs),
                        np.int64, len(starts))
        g = np.repeat(g, np.diff(starts, append=label.shape[1]))
        code, first = np.unique(g, return_index=True)
        # codes follow first appearance: the chunk's new groups start at their first rows
        first = first[code >= known]
        for part, column in zip(parts, (g.astype(_narrowest(len(groups))), b[ok], s[ok],
                                        lines[ok][first], *label[:, first])):
            part.append(column)
    del groups  # freed before the fit
    # popped, so each column's chunks are freed once they are joined
    group, b, s, first_line, k, c, t = (
        _cat(parts.pop(0), dtype)
        for dtype in (np.int8, float, float, np.intp, np.int32, np.int32, np.int32))
    adc, problem = _fit_groups(group, b, s, len(first_line))
    tc, cc = timepoint_of.take(t, mode="clip"), cohort_of.take(c, mode="clip")
    ok = (problem == 0) & (tc >= 0) & (cc >= 0) & np.isfinite(adc) & (adc > 0)
    timepoints, cohorts = list(timepoints), list(cohorts)  # labels in code order
    errors.extend((int(first_line[j]), _GROUP_PROBLEMS[problem[j]] if problem[j]
                   else _voxel_problem(timepoints[t[j]], cohorts[c[j]], repr(float(adc[j]))))
                  for j in np.flatnonzero(~ok))
    table = _voxel_table(k[ok], cc[ok], tc[ok], adc[ok], list(tumors), path)
    return VoxelLoadResult(records=table, errors=errors)


def write_json(path, payload):
    """Write payload as JSON artifacts are written: keys sorted, one-space
    indents and a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_histogram_json(path, h: Histogram2D):
    write_json(path, h.to_json_dict())


def read_histogram_json(path) -> Histogram2D:
    """Histogram from a JSON file; a malformed file is an InputError."""
    return read_input(path, "histogram", lambda fh: Histogram2D.from_json_dict(json.load(fh)))

import math
import re
import tracemalloc

import numpy as np
import pytest

from lpm import histograms
from lpm.errors import (DegenerateDesignError, EmptyInputError,
                        InputFormatError)
from lpm.histograms import (COHORTS, TIMEPOINTS, BinningConfig, Histogram2D,
                            VoxelTable, bin_voxels, fit_adc, fit_adc_with_s0,
                            load_signal_csv, load_voxel_csv, read_histogram_json,
                            write_histogram_json, write_voxel_csv)


def traced_peak(fn, *args):
    """(fn(*args), peak bytes tracemalloc saw allocated while it ran)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBinningConfig:
    def test_defaults(self, binning):
        assert binning.adc_min == 0.0
        assert binning.adc_max == 3.0e-3
        assert binning.n_adc_bins == 32
        assert binning.n_cells == 64

    def test_edges_and_centers(self, binning):
        assert len(binning.edges) == 33
        assert binning.edges[0] == 0.0
        assert binning.edges[-1] == pytest.approx(3.0e-3)
        assert binning.centers[0] == pytest.approx(binning.width / 2)
        assert np.all(np.diff(binning.centers) > 0)

    def test_bin_index_half_open(self, binning):
        w = binning.width
        assert binning.bin_index(0.0) == 0
        assert binning.bin_index(w) == 1  # left edge belongs to the next bin
        assert binning.bin_index(w - 1e-12) == 0

    def test_last_bin_closed(self, binning):
        assert binning.bin_index(binning.adc_max) == binning.n_adc_bins - 1

    def test_out_of_range_is_none(self, binning):
        assert binning.bin_index(-1e-9) is None
        assert binning.bin_index(binning.adc_max + 1e-9) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            BinningConfig(adc_min=1.0, adc_max=1.0)
        with pytest.raises(ValueError):
            BinningConfig(n_adc_bins=1)
        with pytest.raises(ValueError):
            BinningConfig(n_timepoints=3)

    def test_json_roundtrip(self, binning):
        assert BinningConfig.from_json_dict(binning.to_json_dict()) == binning


def load_rows(tmp_path, rows):
    """load_voxel_csv on a file of (tumor_id, cohort, timepoint, adc) rows."""
    path = tmp_path / "voxels.csv"
    path.write_text("tumor_id,cohort,timepoint,adc\n"
                    + "".join(f"{t},{c},{tp},{a!r}\n" for t, c, tp, a in rows))
    return load_voxel_csv(path)


class TestVoxelRecord:
    """One (tumor_id, cohort, timepoint, adc) row as load_voxel_csv checks it."""

    def test_valid(self, tmp_path):
        loaded = load_rows(tmp_path, [("t1", "control", "baseline", 1e-3)])
        assert loaded.errors == []
        assert len(loaded.records) == 1
        assert loaded.records.tumor_ids == ("t1",)
        assert loaded.records.cohorts == ("control",)

    @pytest.mark.parametrize("kwargs", [
        {"cohort": "placebo"},
        {"timepoint": "week2"},
        {"adc": 0.0},
        {"adc": -1e-3},
        {"adc": float("nan")},
        {"adc": float("inf")},
    ])
    def test_invalid(self, tmp_path, kwargs):
        base = {"tumor_id": "t1", "cohort": "control",
                "timepoint": "baseline", "adc": 1e-3}
        base.update(kwargs)
        loaded = load_rows(tmp_path, [tuple(base.values())])
        assert len(loaded.records) == 0
        assert [line for line, _ in loaded.errors] == [2]


class TestSignalRecord:
    """One voxel's b-values and signals as fit_adc checks them."""

    def test_needs_two_distinct_b(self):
        with pytest.raises(DegenerateDesignError):
            fit_adc((100.0, 100.0), (1.0, 1.0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fit_adc((0.0, 100.0), (1.0,))

    def test_negative_b(self):
        with pytest.raises(ValueError):
            fit_adc((-1.0, 100.0), (1.0, 0.9))


class TestFitAdc:
    def test_exact_recovery(self):
        d_true, s0_true = 1.1e-3, 1500.0
        b = (0.0, 100.0, 500.0, 900.0)
        s = tuple(s0_true * math.exp(-bv * d_true) for bv in b)
        d, s0 = fit_adc_with_s0(b, s)
        assert d == pytest.approx(d_true, rel=1e-10)
        assert s0 == pytest.approx(s0_true, rel=1e-10)

    def test_two_point_fit(self):
        d = fit_adc((0.0, 1000.0), (1000.0, 1000.0 * math.exp(-1.0)))
        assert d == pytest.approx(1e-3, rel=1e-10)

    def test_nonpositive_signal_rejected(self):
        with pytest.raises(ValueError):
            fit_adc((0.0, 500.0), (1000.0, 0.0))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            fit_adc((0.0, 500.0, 1000.0), (1000.0, float("nan"), 300.0))


class TestHistogram2D:
    def test_counts_frozen_and_int(self, binning):
        h = Histogram2D(tumor_id="t1", cohort="control",
                        counts=np.ones((32, 2)), binning=binning)
        assert h.counts.dtype == np.int64
        assert h.total == 64
        with pytest.raises(ValueError):
            h.counts[0, 0] = 5

    @pytest.mark.parametrize("counts", [
        np.ones((31, 2)),
        -np.ones((32, 2)),
        np.full((32, 2), 0.5),
    ])
    def test_invalid_counts(self, binning, counts):
        with pytest.raises(ValueError):
            Histogram2D(tumor_id="t1", cohort="control", counts=counts,
                        binning=binning)

    def test_json_roundtrip(self, tmp_path, binning):
        counts = np.arange(64).reshape(32, 2)
        h = Histogram2D(tumor_id="t1", cohort="treated", counts=counts,
                        binning=binning, overflow=3)
        path = tmp_path / "h.json"
        write_histogram_json(path, h)
        back = read_histogram_json(path)
        assert back.tumor_id == "t1"
        assert back.cohort == "treated"
        assert back.overflow == 3
        assert np.array_equal(back.counts, h.counts)
        assert back.binning == binning


class TestBinVoxels:
    def test_basic_placement(self, tmp_path, binning):
        w = binning.width
        table = load_rows(tmp_path, [
            ("t1", "control", "baseline", 0.5 * w),
            ("t1", "control", "baseline", 0.5 * w),
            ("t1", "control", "followup", 2.5 * w),
        ]).records
        hists = bin_voxels(table, binning)
        h = hists["t1"]
        assert h.counts[0, 0] == 2
        assert h.counts[2, 1] == 1
        assert h.total == 3
        assert h.warnings == ()

    def test_overflow_tallied(self, tmp_path, binning):
        table = load_rows(tmp_path, [
            ("t1", "control", "baseline", 1e-3),
            ("t1", "control", "followup", 5e-3),  # out of range
        ]).records
        h = bin_voxels(table, binning)["t1"]
        assert h.overflow == 1
        assert h.total == 1

    def test_single_timepoint_warning(self, tmp_path, binning):
        table = load_rows(tmp_path, [("t1", "control", "baseline", 1e-3)]).records
        h = bin_voxels(table, binning)["t1"]
        assert any("only one timepoint" in w for w in h.warnings)

    def test_inconsistent_cohort_rejected(self, tmp_path):
        rows = [("t1", "control", "baseline", 1e-3),
                ("t1", "treated", "followup", 1e-3)]
        with pytest.raises(InputFormatError, match="'t1'"):
            load_rows(tmp_path, rows)

    def test_empty_input(self, tmp_path, binning):
        with pytest.raises(EmptyInputError):
            bin_voxels(load_rows(tmp_path, []).records, binning)

    def test_output_sorted_by_tumor(self, tmp_path, binning):
        table = load_rows(tmp_path, [("zz", "control", "baseline", 1e-3),
                                     ("aa", "control", "baseline", 1e-3)]).records
        assert list(bin_voxels(table, binning)) == ["aa", "zz"]

    def test_matches_bin_index(self, tmp_path, binning):
        w = binning.width
        adc = [1e-9, w, w - 1e-12, 2.5 * w, binning.adc_max, binning.adc_max + 1e-9, 1.0]
        table = load_rows(tmp_path, [("t1", "control", "baseline", a) for a in adc]).records
        h = bin_voxels(table, binning)["t1"]
        expected = np.zeros(binning.n_adc_bins, dtype=int)
        for a in adc:
            if binning.bin_index(a) is not None:
                expected[binning.bin_index(a)] += 1
        assert np.array_equal(h.counts[:, 0], expected)
        assert h.overflow == 2

    @pytest.mark.parametrize("n_tumors", [1, 2, 497])  # int8, int16, int32 flat index
    def test_counts_match_int64_reference_in_compact_memory(self, n_tumors):
        config = BinningConfig(adc_min=1e-4, adc_max=3e-3, n_adc_bins=32)
        nb, n = config.n_adc_bins, 300_000
        rng = np.random.default_rng(n_tumors)
        adc = rng.uniform(0.5e-4, 3.5e-3, n)  # below, inside and above the grid
        adc[::7] = config.adc_max  # the closed last bin
        table = VoxelTable(tumor=rng.integers(0, n_tumors, n, dtype=np.int32),
                           timepoint=rng.integers(0, 2, n, dtype=np.int8), adc=adc,
                           tumor_ids=tuple(f"t{k:03d}" for k in range(n_tumors)),
                           cohorts=("control",) * n_tumors)
        bins = np.clip((adc - config.adc_min) / config.width, 0, nb - 1).astype(np.int64)
        bins[(adc < config.adc_min) | (adc > config.adc_max)] = nb
        ref = np.zeros((n_tumors, nb + 1, 2), dtype=np.int64)
        np.add.at(ref, (table.tumor.astype(np.int64), bins,
                        table.timepoint.astype(np.int64)), 1)
        hists, peak = traced_peak(bin_voxels, table, config)
        for k, tumor_id in enumerate(table.tumor_ids):
            assert np.array_equal(hists[tumor_id].counts, ref[k, :nb])
            assert hists[tumor_id].overflow == ref[k, nb].sum()
        assert ref[:, nb - 1].sum() >= n // 7 and ref[:, nb].sum() > 0
        # one float64 temporary, the flat index and bincount's intp copy of it
        assert peak <= 14 * n


class TestVoxelCsv:
    def test_roundtrip(self, tmp_path):
        rows = [("t1", "control", "baseline", 1.25e-3),
                ("t2", "treated", "followup", 2.5e-3)]
        path = tmp_path / "voxels.csv"
        write_voxel_csv(path, rows)
        loaded = load_voxel_csv(path)
        assert loaded.errors == []
        table = loaded.records
        assert [(table.tumor_ids[k], table.cohorts[k], TIMEPOINTS[t], a)
                for k, t, a in zip(table.tumor, table.timepoint, table.adc)] == rows
        assert (table.tumor.dtype, table.timepoint.dtype, table.adc.dtype) == (
            np.int32, np.int8, np.float64)

    def test_hour_labels_accepted(self, tmp_path):
        path = tmp_path / "voxels.csv"
        path.write_text("tumor_id,cohort,timepoint,adc\n"
                        "t1,control,0,0.001\n"
                        "t1,control,72,0.002\n")
        loaded = load_voxel_csv(path)
        assert [TIMEPOINTS[t] for t in loaded.records.timepoint] == ["baseline",
                                                                     "followup"]

    def test_bad_rows_reported_with_line_numbers(self, tmp_path):
        path = tmp_path / "voxels.csv"
        path.write_text("tumor_id,cohort,timepoint,adc\n"
                        "t1,control,0,0.001\n"
                        "t1,control,0,not_a_number\n"
                        "t1,placebo,0,0.001\n"
                        "t1,control,week9,0.001\n")
        loaded = load_voxel_csv(path)
        assert len(loaded.records) == 1
        assert loaded.errors == [(3, "could not convert string to float: 'not_a_number'"),
                                 (4, "unknown cohort 'placebo'"),
                                 (5, "unknown timepoint 'week9'")]

    def test_row_with_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "voxels.csv"
        path.write_text("tumor_id,cohort,timepoint,adc\n"
                        "t1,control\n"
                        "\n"
                        "t1,control,0,0.001\n"
                        "t1,control,0\n")
        loaded = load_voxel_csv(path)
        assert len(loaded.records) == 1
        assert loaded.errors == [(2, "missing fields ['timepoint', 'adc']"),
                                 (5, "missing fields ['adc']")]

    def test_chunks_and_quoted_line_breaks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(histograms, "_CHUNK_ROWS", 2)
        path = tmp_path / "voxels.csv"
        path.write_text("tumor_id,cohort,timepoint,adc\n"
                        '"t\n1",control,0,0.001\n'
                        "t2,control,0,0.001\n"
                        "t2,control,0,-1\n"
                        "t2,control,0,0.002\n"
                        "t2,control,72,x\n")
        loaded = load_voxel_csv(path)
        assert loaded.records.tumor_ids == ("t\n1", "t2")
        assert len(loaded.records) == 3
        assert [line for line, _ in loaded.errors] == [5, 7]

    def test_field_wider_than_plain_chunks_hold(self, tmp_path, monkeypatch):
        monkeypatch.setattr(histograms, "_CHUNK_ROWS", 2)
        wide = "t" * (histograms._FIELD_MAX + 1)
        path = tmp_path / "voxels.csv"
        path.write_text("tumor_id,cohort,timepoint,adc\n"
                        "t1,control,0,0.001\n"
                        "t1,control,0,x\n"
                        f"{wide},treated,72,0.002\n"
                        "t1,control,72,0.003\n")
        loaded = load_voxel_csv(path)
        assert loaded.records.tumor_ids == ("t1", wide)
        assert loaded.records.adc.tolist() == [0.001, 0.002, 0.003]
        assert loaded.errors == [(3, "could not convert string to float: 'x'")]

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["LF", "CRLF", "CR"])
    def test_undecodable_byte_names_its_line(self, tmp_path, end):
        lines = [b"tumor_id,cohort,timepoint,adc"] + [b"t1,control,0,0.001"] * 1000
        lines[900] = b"t\xff,control,0,0.001"  # physical line 901
        path = tmp_path / "voxels.csv"
        path.write_bytes(end.join(lines) + end)
        with pytest.raises(InputFormatError, match="voxels.csv: line 901: "
                           "cannot decode byte 0xff as UTF-8"):
            load_voxel_csv(path)

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 1 << 16])
    def test_decode_blocks_split_no_character_or_crlf(self, tmp_path, monkeypatch,
                                                      block):
        monkeypatch.setattr(histograms, "_BLOCK_BYTES", block)
        path = tmp_path / "voxels.csv"
        path.write_bytes('tumor_id,cohort,timepoint,adc\r\n"t\r\n1",control,0,0.001\r'
                         "t\u00fc\u20ac,control,0,0.002\n\r\nt2,control,72,x\r\n"
                         "t3,treated,0,0.003".encode())
        loaded = load_voxel_csv(path)
        assert loaded.records.tumor_ids == ("t\r\n1", "t\u00fc\u20ac", "t3")
        assert loaded.records.adc.tolist() == [0.001, 0.002, 0.003]
        assert loaded.errors == [(6, "could not convert string to float: 'x'")]

    def test_load_peak_memory_per_voxel(self, tmp_path):
        n = 100_000
        rng = np.random.default_rng(0)
        path = tmp_path / "voxels.csv"
        write_voxel_csv(path, ((f"t{k}", COHORTS[k % 2], TIMEPOINTS[t], float(a))
                               for k, t, a in zip(rng.integers(0, 20, n),
                                                  rng.integers(0, 2, n),
                                                  rng.uniform(1e-4, 3e-3, n))))
        loaded, peak = traced_peak(load_voxel_csv, path)
        assert len(loaded.records) == n
        assert peak <= 40 * n

    @pytest.mark.parametrize("tumor_id", ["../escaped", "", " ", ".", "..", "a/b", "t\0"])
    def test_unsafe_tumor_id_rejected(self, tmp_path, tumor_id):
        path = tmp_path / "voxels.csv"
        path.write_text("tumor_id,cohort,timepoint,adc\n"
                        "t1,control,0,0.001\n"
                        f"{tumor_id},control,0,0.001\n")
        with pytest.raises(InputFormatError, match=f"voxels.csv: tumor id "
                           f"{re.escape(repr(tumor_id.strip()))} cannot name"):
            load_voxel_csv(path)

    def test_unsafe_tumor_id_of_rejected_rows_only_is_kept_out(self, tmp_path):
        path = tmp_path / "voxels.csv"
        path.write_text("tumor_id,cohort,timepoint,adc\n"
                        "t1,control,0,0.001\n"
                        "../x,control,0,n/a\n")
        loaded = load_voxel_csv(path)
        assert loaded.records.tumor_ids == ("t1",)
        assert [line for line, _ in loaded.errors] == [3]

    def test_missing_column(self, tmp_path):
        path = tmp_path / "voxels.csv"
        path.write_text("tumor_id,cohort,adc\nt1,control,0.001\n")
        with pytest.raises(InputFormatError):
            load_voxel_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "voxels.csv"
        path.write_text("")
        with pytest.raises(InputFormatError):
            load_voxel_csv(path)


class TestSignalCsv:
    def test_groups_fitted(self, tmp_path):
        d = 1e-3
        rows = ["tumor_id,cohort,timepoint,voxel_id,b,signal"]
        for b in (0.0, 500.0, 1000.0):
            rows.append(f"t1,control,0,v1,{b},{1000.0 * math.exp(-b * d)!r}")
        path = tmp_path / "signals.csv"
        path.write_text("\n".join(rows) + "\n")
        loaded = load_signal_csv(path)
        assert loaded.errors == []
        assert len(loaded.records) == 1
        assert loaded.records.adc[0] == pytest.approx(d, rel=1e-10)
        table = loaded.records
        assert (table.tumor.dtype, table.timepoint.dtype, table.adc.dtype) == (
            np.int32, np.int8, np.float64)

    def test_degenerate_group_reported(self, tmp_path):
        path = tmp_path / "signals.csv"
        path.write_text("tumor_id,cohort,timepoint,voxel_id,b,signal\n"
                        "t1,control,0,v1,500,900\n"
                        "t1,control,0,v1,500,901\n")
        loaded = load_signal_csv(path)
        assert len(loaded.records) == 0
        assert loaded.errors == [(2, "need at least 2 distinct b-values")]

    def test_rows_then_groups_reported(self, tmp_path):
        path = tmp_path / "signals.csv"
        path.write_text("tumor_id,cohort,timepoint,voxel_id,b,signal\n"
                        "t1,control,0,v1,0,1000\n"
                        "t1,control,0,v2,0,1000\n"
                        "t1,control,0,v1,500,600\n"
                        "t1,control,0,v2,500,n/a\n"
                        "t1,control,48,v3,0,1000\n"
                        "t1,control,48,v3,500,600\n"
                        "t1,control,0,v4\n")
        loaded = load_signal_csv(path)
        assert len(loaded.records) == 1
        assert loaded.errors == [(5, "could not convert string to float: 'n/a'"),
                                 (8, "missing fields ['b', 'signal']"),
                                 (3, "need at least 2 distinct b-values"),
                                 (6, "unknown timepoint '48'")]

    @pytest.mark.parametrize("tumor_id", ["../escaped", "", "..", "a/b", "t\0"])
    def test_unsafe_tumor_id_rejected(self, tmp_path, tumor_id):
        path = tmp_path / "signals.csv"
        path.write_text("tumor_id,cohort,timepoint,voxel_id,b,signal\n"
                        f"{tumor_id},control,0,v1,0,1000\n"
                        f"{tumor_id},control,0,v1,500,600\n")
        with pytest.raises(InputFormatError, match=f"signals.csv: tumor id "
                           f"{re.escape(repr(tumor_id))} cannot name"):
            load_signal_csv(path)

    def test_load_peak_memory_per_row(self, tmp_path):
        n_voxels, b_values = 12_500, (0.0, 250.0, 500.0, 1000.0)
        rng = np.random.default_rng(0)
        path = tmp_path / "signals.csv"
        with open(path, "w") as fh:
            fh.write("tumor_id,cohort,timepoint,voxel_id,b,signal\n")
            for v, (k, t, d) in enumerate(zip(rng.integers(0, 20, n_voxels),
                                              rng.integers(0, 2, n_voxels),
                                              rng.uniform(1e-4, 3e-3, n_voxels))):
                fh.writelines(f"t{k},{COHORTS[k % 2]},{(0, 72)[t]},v{v},{b!r},"
                              f"{1000.0 * math.exp(-b * d)!r}\n" for b in b_values)
        loaded, peak = traced_peak(load_signal_csv, path)
        assert len(loaded.records) == n_voxels
        assert peak <= 160 * n_voxels * len(b_values)

import gzip
import os
import re
import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqseg import nifti
from uqseg.config import (
    ENV_CONFIG_PATH,
    PipelineConfig,
    _to_doc,
    default_config_yaml,
    load_config,
    parse_config,
)
from uqseg.losses import LossConfig
from uqseg.nifti import read_label_volume, read_nifti, write_nifti
from uqseg.phantom import PRESETS, PhantomConfig
from uqseg.refine import RefinementConfig, RegionLabel, brats_labels_to_masks
from uqseg.survival import (
    FEATURE_NAMES,
    MAX_DEPTH,
    ClassBins,
    ForestModel,
    FusionModel,
    OlsModel,
    SurvivalClass,
    SurvivalConfig,
    SurvivalRecord,
    save_model,
)
from uqseg.tables import (
    cell,
    read_case_table,
    read_survival_table,
    write_predictions_table,
    write_results_table,
    write_survival_table,
)
from uqseg.volumes import Connectivity, Mask3D, Volume3D

import yaml


def craft_nifti_bytes(data, datatype, bitpix, slope=0.0, inter=0.0, pixdim=(1.0, 1.0, 1.0)):
    """Independent byte-level construction of a single-file NIfTI-1 volume."""
    header = bytearray(348)
    struct.pack_into("<i", header, 0, 348)
    struct.pack_into("<8h", header, 40, 3, *data.shape, 1, 1, 1, 1)
    struct.pack_into("<h", header, 70, datatype)
    struct.pack_into("<h", header, 72, bitpix)
    struct.pack_into("<8f", header, 76, 1.0, *pixdim, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", header, 108, 352.0)
    struct.pack_into("<2f", header, 112, slope, inter)
    header[344:348] = b"n+1\x00"
    return bytes(header) + b"\x00\x00\x00\x00" + data.tobytes(order="F")


@pytest.mark.usefixtures("inflater")
class TestNifti:
    def test_float32_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.random((5, 6, 7)).astype(np.float32).astype(np.float64)
        vol = Volume3D(data, spacing=(1.0, 1.25, 2.5))
        path = tmp_path / "vol.nii"
        write_nifti(vol, path)
        back, view = read_nifti(path)
        np.testing.assert_array_equal(back.data, data)
        assert back.dims == (5, 6, 7)
        assert back.spacing == pytest.approx((1.0, 1.25, 2.5), abs=1e-6)
        assert view.datatype == 16

    def test_gzip_and_plain_agree(self, tmp_path):
        rng = np.random.default_rng(1)
        vol = Volume3D(rng.random((4, 4, 4)))
        write_nifti(vol, tmp_path / "a.nii")
        write_nifti(vol, tmp_path / "a.nii.gz")
        plain, _ = read_nifti(tmp_path / "a.nii")
        zipped, _ = read_nifti(tmp_path / "a.nii.gz")
        np.testing.assert_array_equal(plain.data, zipped.data)

    def test_gzip_output_is_deterministic(self, tmp_path):
        vol = Volume3D(np.ones((3, 3, 3)))
        write_nifti(vol, tmp_path / "a.nii.gz")
        write_nifti(vol, tmp_path / "b.nii.gz")
        assert (tmp_path / "a.nii.gz").read_bytes() == (tmp_path / "b.nii.gz").read_bytes()

    def test_scl_slope_inter_applied(self, tmp_path):
        data = np.full((2, 2, 2), 3, dtype="<i2")
        blob = craft_nifti_bytes(data, datatype=4, bitpix=16, slope=2.0, inter=1.0)
        path = tmp_path / "scaled.nii"
        path.write_bytes(blob)
        vol, view = read_nifti(path)
        assert vol.data[0, 0, 0] == 7.0
        assert view.scl_slope == 2.0 and view.scl_inter == 1.0

    def test_nan_slope_means_unscaled(self, tmp_path):
        data = np.full((2, 2, 2), 3, dtype="<i2")
        blob = craft_nifti_bytes(data, datatype=4, bitpix=16, slope=float("nan"), inter=9.0)
        path = tmp_path / "nan.nii"
        path.write_bytes(blob)
        vol, _ = read_nifti(path)
        assert vol.data[0, 0, 0] == 3.0

    def test_uint8_label_roundtrip(self, tmp_path):
        labels = np.zeros((4, 4, 4))
        labels[1, 1, 1] = 1
        labels[2, 2, 2] = 2
        labels[3, 3, 3] = 4
        path = tmp_path / "seg.nii.gz"
        write_nifti(Volume3D(labels), path, dtype="uint8")
        back, view = read_label_volume(path)
        np.testing.assert_array_equal(back.data, labels)
        assert view.datatype == 2

    def test_mask_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        mask = Mask3D(rng.random((4, 5, 6)) < 0.5)
        path = tmp_path / "mask.nii"
        write_nifti(mask, path)
        back, _ = read_label_volume(path)
        assert back.data.dtype == np.uint8
        np.testing.assert_array_equal(back.data, mask.data)

    def test_header_template_passthrough(self, tmp_path):
        vol = Volume3D(np.ones((3, 3, 3)))
        first = tmp_path / "first.nii"
        write_nifti(vol, first)
        _, view = read_nifti(first)
        # scribble an opaque field (descrip, offset 148) into the template
        raw = bytearray(view.raw)
        raw[148 : 148 + 8] = b"probed!!"
        view.raw = bytes(raw)
        second = tmp_path / "second.nii"
        write_nifti(vol, second, header_template=view)
        _, view2 = read_nifti(second)
        assert view2.raw[148 : 148 + 8] == b"probed!!"

    def test_template_dim_mismatch(self, tmp_path):
        vol = Volume3D(np.ones((3, 3, 3)))
        path = tmp_path / "a.nii"
        write_nifti(vol, path)
        _, view = read_nifti(path)
        with pytest.raises(ValueError, match="dimension mismatch"):
            write_nifti(Volume3D(np.ones((2, 2, 2))), tmp_path / "b.nii", header_template=view)

    def test_unsupported_datatype(self, tmp_path):
        data = np.zeros((2, 2, 2), dtype="<f8")
        blob = craft_nifti_bytes(data, datatype=64, bitpix=64)
        path = tmp_path / "f64.nii"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match="unsupported datatype"):
            read_nifti(path)

    def test_truncated_file(self, tmp_path):
        vol = Volume3D(np.ones((4, 4, 4)))
        path = tmp_path / "full.nii"
        write_nifti(vol, path)
        clipped = tmp_path / "clipped.nii"
        clipped.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(ValueError, match="truncated"):
            read_nifti(clipped)

    @pytest.mark.parametrize(
        "corrupt, cause",
        [
            (lambda b: b[: len(b) // 2], EOFError),  # truncated stream
            (lambda b: b[:10] + b"\xff" + b[11:], zlib.error),  # reserved deflate block type
            (lambda b: b[:-8] + bytes([b[-8] ^ 1]) + b[-7:], gzip.BadGzipFile),  # CRC mismatch
        ],
        ids=["truncated", "bad-block", "bad-crc"],
    )
    def test_corrupt_gzip_names_path(self, tmp_path, corrupt, cause):
        good = tmp_path / "good.nii.gz"
        write_nifti(Volume3D(np.arange(64.0).reshape(4, 4, 4)), good)
        bad = tmp_path / "bad.nii.gz"
        bad.write_bytes(corrupt(good.read_bytes()))
        with pytest.raises(ValueError, match="bad.nii.gz: corrupt gzip stream") as info:
            read_nifti(bad)
        assert isinstance(info.value.__cause__, cause)

    def test_gzip_volume_is_read_only(self, tmp_path, inflater):
        """libdeflate inflates into one read-only buffer, zlib into bytes; both read the same."""
        path = tmp_path / "v.nii.gz"
        write_nifti(Volume3D(np.arange(64.0).reshape(4, 4, 4)), path)
        blob = nifti._read_bytes(path)
        assert isinstance(blob, memoryview if inflater == "libdeflate" else bytes)
        assert blob == gzip.decompress(path.read_bytes())
        vol, _ = read_nifti(path)
        assert not vol.data.flags.writeable
        assert np.array_equal(vol.data, np.arange(64.0).reshape(4, 4, 4))

    @staticmethod
    def gzip_member(*payloads):
        """One gzip member holding the payloads in turn."""
        deflater = zlib.compressobj(9, zlib.DEFLATED, 31)
        return b"".join([*(deflater.compress(p) for p in payloads), deflater.flush()])

    @pytest.mark.parametrize("layout", ["one member", "second member", "empty first member", "trailing bytes"])
    def test_stream_past_the_declared_volume_refused(self, tmp_path, layout):
        """A stream past its 2x2x2 header's 360 bytes is refused before its 16 MiB are inflated."""
        write_nifti(Volume3D(np.ones((2, 2, 2))), tmp_path / "small.nii", dtype="uint8")
        volume, zeros = (tmp_path / "small.nii").read_bytes(), [bytes(1 << 20)] * 16
        blob = {
            "one member": self.gzip_member(volume, *zeros),
            "second member": self.gzip_member(volume) + self.gzip_member(*zeros),
            "empty first member": self.gzip_member() + self.gzip_member(volume, *zeros),
            "trailing bytes": self.gzip_member(volume, *zeros) + b"junk",
        }[layout]
        path = tmp_path / "bomb.nii.gz"
        path.write_bytes(blob)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="bomb.nii.gz: gzip stream inflates past the 360 bytes"):
                read_nifti(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_header_behind_a_long_file_name_is_found(self, tmp_path):
        """A 100 KiB FNAME field puts the NIfTI header past any one bounded probe; it is still read, and still caps."""
        write_nifti(Volume3D(np.ones((2, 2, 2))), tmp_path / "small.nii", dtype="uint8")
        volume, name = (tmp_path / "small.nii").read_bytes(), b"n" * (100 << 10) + b"\0"
        for stem, payloads in (("named", [volume]), ("bomb", [volume, *[bytes(1 << 20)] * 4])):
            member = self.gzip_member(*payloads)
            path = tmp_path / f"{stem}.nii.gz"
            path.write_bytes(member[:3] + bytes([member[3] | 0x08]) + member[4:10] + name + member[10:])  # FNAME
            assert gzip.decompress(path.read_bytes()) == b"".join(payloads)
        assert np.array_equal(read_nifti(tmp_path / "named.nii.gz")[0].data, np.ones((2, 2, 2)))
        with pytest.raises(ValueError, match="bomb.nii.gz: gzip stream inflates past the 360 bytes its header declares"):
            read_nifti(tmp_path / "bomb.nii.gz")

    def test_stated_size_past_the_deflate_ratio_is_not_allocated(self, tmp_path):
        """A member whose trailer states 4 GiB is refused without a buffer of that size."""
        blob = bytearray(craft_nifti_bytes(np.zeros((2, 2, 2), dtype="<f4"), 16, 32))
        struct.pack_into("<3h", blob, 42, 32767, 32767, 32767)  # a volume that 4 GiB fits in
        member = bytearray(gzip.compress(bytes(blob), mtime=0))
        member[-4:] = struct.pack("<I", 0xFFFFFFF0)
        path = tmp_path / "v.nii.gz"
        path.write_bytes(member)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="v.nii.gz: corrupt gzip stream: Incorrect length"):
                read_nifti(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_non_finite_vox_offset_names_path(self, tmp_path):
        path = tmp_path / "bad.nii"
        for value in (float("inf"), float("-inf"), float("nan")):
            blob = bytearray(craft_nifti_bytes(np.zeros((3, 3, 3), dtype="<f4"), 16, 32))
            struct.pack_into("<f", blob, 108, value)
            path.write_bytes(bytes(blob))
            with pytest.raises(ValueError, match="bad.nii: non-finite vox_offset"):
                read_nifti(path)

    def test_dim0_above_seven_names_path(self, tmp_path):
        path = tmp_path / "bad.nii"
        for value in (8, 9, 32767):
            write_nifti(Volume3D(np.zeros((5, 5, 5))), path, dtype="uint8")
            blob = bytearray(path.read_bytes())
            struct.pack_into("<h", blob, 40, value)
            path.write_bytes(bytes(blob))
            with pytest.raises(ValueError, match="bad.nii: only 3D single-frame"):
                read_nifti(path)

    @staticmethod
    def write_version(path, v):
        """Version ``v`` of a NIfTI volume, a CSV table or a survival model at ``path``."""
        if path.name.startswith("out.nii"):
            write_nifti(Volume3D(np.full((4, 4, 4), float(v))), path)
        elif path.suffix == ".csv":
            write_predictions_table(path, [("case", float(v))])
        else:
            ols = OlsModel(feature_set=(), coefficients=np.array([float(v)]))
            forest = ForestModel(feature_set=("age",), max_depth=3, feature=np.zeros((1, 0), dtype=np.int64),
                                 threshold=np.zeros((1, 0)), counts=np.array([[[1, 0, 0]]]))
            save_model(FusionModel(ols=ols, forest=forest), path)

    @pytest.mark.parametrize("fail_at", ["write", "rename"])
    @pytest.mark.parametrize("name", ["out.nii", "out.nii.gz", "out.csv", "model.json"])
    def test_failed_write_keeps_target(self, tmp_path, monkeypatch, fail_at, name):
        target = tmp_path / name
        self.write_version(target, 0)
        before = target.read_bytes()

        def write_half(self, data):
            with open(self, "wb") as fh:
                fh.write(bytes(data)[: len(data) // 2])
            raise OSError("disk full")

        def no_rename(src, dst):
            raise OSError("rename refused")

        if fail_at == "write":
            monkeypatch.setattr(Path, "write_bytes", write_half)
        else:
            monkeypatch.setattr(os, "replace", no_rename)
        with pytest.raises(OSError):
            self.write_version(target, 1)
        monkeypatch.undo()
        assert target.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [name]

    def test_not_a_nifti(self, tmp_path):
        path = tmp_path / "junk.nii"
        path.write_bytes(b"x" * 400)
        with pytest.raises(ValueError, match="not a NIfTI-1 file"):
            read_nifti(path)

    def test_expected_dims_checked(self, tmp_path):
        path = tmp_path / "a.nii"
        write_nifti(Volume3D(np.ones((3, 3, 3))), path)
        with pytest.raises(ValueError, match="do not match expected"):
            read_nifti(path, expect_dims=(4, 4, 4))

    def test_label_values_validated(self, tmp_path):
        path = tmp_path / "bad.nii"
        write_nifti(Volume3D(np.full((2, 2, 2), 3.0)), path, dtype="uint8")
        with pytest.raises(ValueError, match="outside declared set"):
            read_label_volume(path)

    @pytest.mark.parametrize("dtype, slope, message", [
        ("uint8", 1.0, r": label values \[3, 8\] outside declared set \[0, 1, 2, 4\]$"),
        ("uint8", 0.5, r": label values \[0.5, 1.5\] outside declared set \[0, 1, 2, 4\]$"),
        ("int16", 0.5, r": label values \[0.5, 1.5\] outside declared set \[0, 1, 2, 4\]$"),
        ("float32", 0.5, r": label values \[0.5, 1.5\] outside declared set \[0, 1, 2, 4\]$"),
    ], ids=["unscaled-uint8", "scaled-uint8", "scaled-int16", "scaled-float32"])
    def test_label_values_compared_exactly(self, tmp_path, dtype, slope, message):
        """Stored 1 and 3 at slope 0.5 read 0.5 and 1.5: no label, in any dtype, not truncated to 0 and 1."""
        path = tmp_path / "labels.nii"
        write_nifti(Volume3D(np.array([0, 1, 2, 3, 4, 8, 0, 0], dtype=np.uint8).reshape(2, 2, 2)), path, dtype=dtype)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<f", blob, 112, slope)
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=message):
            read_label_volume(path)

    def test_non_integer_payload_rejected_for_int_dtype(self, tmp_path):
        with pytest.raises(ValueError, match="non-integer"):
            write_nifti(Volume3D(np.full((2, 2, 2), 0.5)), tmp_path / "x.nii", dtype="uint8")

    def test_out_of_range_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="out of range"):
            write_nifti(Volume3D(np.full((2, 2, 2), 300.0)), tmp_path / "x.nii", dtype="uint8")


@pytest.mark.parametrize("dtype", ["uint8", "int16", "float32"])
@pytest.mark.parametrize("slope", [1.0, 0.5], ids=["unscaled", "scaled"])
@pytest.mark.parametrize("stored", [
    [0, 1, 2, 3, 4, 8, 0, 0],  # refused either way
    [0, 1, 2, 4, 0, 0, 1, 4],  # labels unscaled, fractions at slope 0.5
    [0, 2, 4, 8, 0, 0, 2, 4],  # labels at slope 0.5 only
], ids=["bad", "labels", "doubled"])
def test_label_rule_has_one_owner(tmp_path, dtype, slope, stored):
    """``read_label_volume`` refuses exactly the maps ``brats_labels_to_masks`` refuses, in its words.

    Outside ``TestNifti``: plain ``.nii`` files never reach an inflater, so a zlib rerun would add nothing.
    """
    path = tmp_path / "labels.nii"
    write_nifti(Volume3D(np.array(stored, dtype=np.uint8).reshape(2, 2, 2)), path, dtype=dtype)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<f", blob, 112, slope)
    path.write_bytes(bytes(blob))
    vol, _ = read_nifti(path)
    try:
        brats_labels_to_masks(vol)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            read_label_volume(path)
        assert str(info.value) == f"{path}: {exc}"
    else:
        assert np.array_equal(read_label_volume(path)[0].data, vol.data)


class TestSurvivalTables:
    def test_roundtrip(self, tmp_path):
        records = [
            SurvivalRecord("case-2", 61.5, 2, 1, 345.0),
            SurvivalRecord("case-1", 55.0, 1, 1, None),
        ]
        path = tmp_path / "features.csv"
        write_survival_table(path, records)
        back = read_survival_table(path)
        assert [r.case_id for r in back] == ["case-1", "case-2"]  # sorted
        assert back[0].survival_days is None
        assert back[1].survival_days == 345.0
        assert back[1].age == 61.5

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("case_id,age\nx,60\n")
        with pytest.raises(ValueError, match="n_tumors"):
            read_survival_table(path)

    @pytest.mark.parametrize("column, row", [
        ("age", "x,60.5.1,1,1,300"),
        ("n_tumors", "x,60,1.5,1,300"),
        ("n_cores", "x,60,1,,300"),
        ("survival_days", "x,60,1,1,soon"),
    ])
    def test_bad_cell_named(self, tmp_path, column, row):
        path = tmp_path / "bad.csv"
        path.write_text("case_id,age,n_tumors,n_cores,survival_days\n" + row + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: case 'x': bad {column} "):
            read_survival_table(path)

    def test_short_row_named(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("case_id,age,n_tumors,n_cores,survival_days\nx,60\n")
        with pytest.raises(ValueError, match="case 'x': bad n_tumors None"):
            read_survival_table(path)

    def test_bad_prediction_named(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("case_id,predicted_days\na,299.0\nb,n/a\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: case 'b': bad predicted_days 'n/a'"):
            [cell(path, row, "predicted_days", float) for row in read_case_table(path)]

    def test_predictions_roundtrip(self, tmp_path):
        path = tmp_path / "preds.csv"
        write_predictions_table(path, [("b", 300.5), ("a", 299.0)])
        rows = read_case_table(path, ("case_id", "predicted_days"))
        assert [(row["case_id"], float(row["predicted_days"])) for row in rows] == [("a", 299.0), ("b", 300.5)]

    def test_empty_table_roundtrip(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_survival_table(path, [])
        assert read_survival_table(path) == []


class TestResultsTable:
    def test_fixed_columns_and_summary(self, tmp_path):
        rows = [
            {"case_id": "b", "dice_wt": 0.8, "hd95_wt": 2.0},
            {"case_id": "a", "dice_wt": 0.6, "hd95_wt": 4.0},
        ]
        path = tmp_path / "results.csv"
        write_results_table(path, rows)
        got = read_case_table(path)
        assert [r["case_id"] for r in got] == ["a", "b", "mean", "std"]
        mean_row = got[2]
        assert float(mean_row["dice_wt"]) == pytest.approx(0.7)
        assert float(mean_row["hd95_wt"]) == pytest.approx(3.0)
        std_row = got[3]
        assert float(std_row["dice_wt"]) == pytest.approx(0.1)
        header = path.read_text().splitlines()[0]
        assert header == "case_id,dice_wt,hd95_wt"

    def test_quoting_per_rfc4180(self, tmp_path):
        rows = [{"case_id": 'we,ird"name'}]
        path = tmp_path / "quoted.csv"
        write_results_table(path, rows, summary=False)
        got = read_case_table(path)
        assert got[0]["case_id"] == 'we,ird"name'

    def test_byte_identical_across_writes(self, tmp_path):
        rows = [{"case_id": "a", "dice_wt": 1 / 3, "dice_tc": 0.123456789012345}]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results_table(a, rows)
        write_results_table(b, rows)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_required_column(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("foo\n1\n")
        with pytest.raises(ValueError, match="case_id"):
            read_case_table(path)


@st.composite
def non_default_configs(draw):
    """Valid configs drawn over every key: gates, thresholds, features, ordered bins with days inside them."""
    unit = st.floats(0.0, 1.0, exclude_max=True)
    fallback, base = sorted(draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                                          min_size=2, max_size=2, unique=True)))
    refine = RefinementConfig(
        base_threshold=base,
        fallback_threshold=fallback,
        confidence_gate={region: draw(unit) for region in RegionLabel},
        min_component_size=draw(st.integers(0, 10**6)),
        failsafe_min_voxels=draw(st.integers(0, 10**9)),
        connectivity=draw(st.sampled_from(Connectivity)),
        enforce_nesting=draw(st.booleans()),
    )
    short_max = draw(st.floats(1.0, 1000.0))
    long_min = draw(st.floats(short_max, 3000.0))
    features = st.lists(st.sampled_from(FEATURE_NAMES), max_size=3, unique=True).map(tuple)
    survival = SurvivalConfig(
        ols_features=draw(features),
        forest_features=draw(features),
        n_trees=draw(st.integers(1, 10**6)),
        max_depth=draw(st.integers(0, MAX_DEPTH)),
        cap_days=draw(st.floats(0.0, 1e6, exclude_min=True)),
        override_prob=draw(st.floats(0.0, 1.0)),
        override_days={
            SurvivalClass.SHORT: draw(st.floats(0.0, short_max, exclude_max=True)),
            SurvivalClass.MID: draw(st.floats(short_max, long_min)),
            SurvivalClass.LONG: draw(st.floats(long_min, long_min + 1000.0, exclude_min=True)),
        },
        bins=ClassBins(short_max, long_min),
    )
    return PipelineConfig(
        refine=refine,
        uncertainty_thresholds=tuple(draw(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=8))),
        hd95_empty_sentinel=draw(st.none() | st.floats(allow_nan=False, allow_infinity=False)),
        survival=survival,
        phantom=PhantomConfig(preset=draw(st.sampled_from(sorted(PRESETS))),
                              dims=tuple(draw(st.lists(st.integers(1, 512), min_size=3, max_size=3)))),
    )


class TestConfig:
    def test_defaults_roundtrip(self):
        assert parse_config(yaml.safe_load(default_config_yaml())) == PipelineConfig()
        assert parse_config({}) == PipelineConfig()
        assert parse_config(None) == PipelineConfig()

    def test_paper_defaults(self):
        cfg = PipelineConfig()
        assert cfg.refine.base_threshold == 0.5
        assert cfg.refine.fallback_threshold == 0.05
        assert cfg.refine.confidence_gate[RegionLabel.WHOLE_TUMOR] == 0.90
        assert cfg.refine.confidence_gate[RegionLabel.TUMOR_CORE] == 0.75
        assert cfg.refine.confidence_gate[RegionLabel.ENHANCING_TUMOR] == 0.80
        assert cfg.refine.min_component_size == 10
        assert cfg.refine.failsafe_min_voxels == 1000
        assert LossConfig().gamma == 2.0
        assert LossConfig().lam == 0.1
        assert cfg.survival.n_trees == 1000
        assert cfg.survival.max_depth == 3
        assert cfg.survival.cap_days == 1000.0

    def test_file_and_env_resolution(self, tmp_path, monkeypatch):
        path = tmp_path / "conf.yaml"
        path.write_text("refine:\n  base_threshold: 0.6\n")
        assert load_config(path).refine.base_threshold == 0.6
        monkeypatch.setenv(ENV_CONFIG_PATH, str(path))
        assert load_config().refine.base_threshold == 0.6
        monkeypatch.delenv(ENV_CONFIG_PATH)
        assert load_config().refine.base_threshold == 0.5

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown top-level"):
            parse_config({"nonsense": {}})
        with pytest.raises(ValueError, match="unknown refine"):
            parse_config({"refine": {"bogus": 1}})

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"uncertainty": {"bogus": 1}}, "unknown uncertainty config key\\(s\\): bogus"),
            ({"metrics": {"bogus": 1}}, "unknown metrics config key\\(s\\): bogus"),
            ({"survival": {"bogus": 1}}, "unknown survival config key\\(s\\): bogus"),
            ({"phantom": {"bogus": 1}}, "unknown phantom config key\\(s\\): bogus"),
            ({"survival": {"ols_features": ["age", "height"]}},
             "unknown survival feature 'height' in ols_features"),
            ({"survival": {"forest_features": ["weight"]}},
             "unknown survival feature 'weight' in forest_features"),
            ({"refine": {"confidence_gate": {"xx": 0.5}}},
             "unknown region 'xx' in confidence_gate"),
            ({"survival": {"override_days": {"forever": 9999}}},
             "unknown survival class 'forever' in override_days"),
            ({"survival": {"n_trees": 0}}, r"n_trees must be an integer in \[1, inf\], got 0"),
            ({"survival": {"n_trees": 2.7}}, r"n_trees must be an integer in \[1, inf\], got 2.7"),
            ({"survival": {"n_trees": "12"}}, r"n_trees must be an integer in \[1, inf\], got '12'"),
            ({"survival": {"max_depth": -1}}, r"max_depth must be an integer in \[0, 10\], got -1"),
            ({"survival": {"max_depth": 11}}, r"max_depth must be an integer in \[0, 10\], got 11"),
            ({"survival": {"max_depth": 3.0}}, r"max_depth must be an integer in \[0, 10\], got 3.0"),
            ({"refine": {"enforce_nesting": "false"}}, "enforce_nesting must be a boolean, got 'false'"),
            ({"refine": {"min_component_size": 2.7}}, "min_component_size must be an integer, got 2.7"),
            ({"refine": {"min_component_size": "abc"}}, "min_component_size must be an integer, got 'abc'"),
            ({"uncertainty": {"thresholds": 5}}, "thresholds must be a list of numbers, got 5"),
            ({"phantom": {"dims": 48}}, "dims must be a list of integers, got 48"),
            ({"phantom": {"dims": [40, 40]}}, r"dims must be three positive integers, got \[40, 40\]"),
            ({"refine": {"confidence_gate": {"wt": "0.5"}}}, "wt must be a number, got '0.5'"),
            ({"survival": {"override_days": {"short": True}}}, "short must be a number, got True"),
            ({"survival": {"cap_days": -5}}, r"^cap_days must be > 0, got -5.0$"),
            ({"survival": {"cap_days": 0}}, r"^cap_days must be > 0, got 0.0$"),
            ({"survival": {"override_prob": 7}}, r"^override_prob must be in \[0, 1\], got 7.0$"),
            ({"survival": {"override_prob": -0.5}}, r"^override_prob must be in \[0, 1\], got -0.5$"),
            ({"survival": {"short_max_days": 500, "long_min_days": 100}},
             r"^short_max_days 500.0 must not exceed long_min_days 100.0$"),
            ({"survival": {"short_max_days": float("nan")}}, r"^short_max_days must be a number, got nan$"),
            ({"phantom": {"preset": "bogus"}},
             r"^unknown phantom preset 'bogus'; choose from \['diffuse-lgg-like', 'hgg-like'\]$"),
            ({"phantom": {"dims": [40, 0, 40]}}, r"dims must be three positive integers, got \[40, 0, 40\]"),
            ({"refine": {"connectivity": "face4"}},
             r"^unknown connectivity 'face4'; choose from \['corner26', 'edge18', 'face6'\]$"),
            ({"uncertainty": {"thresholds": [0.0, float("nan"), 100.0]}},
             r"^thresholds must be a list of numbers, got \[0.0, nan, 100.0\]$"),
            ({"metrics": {"hd95_empty_sentinel": float("nan")}},
             r"^hd95_empty_sentinel must be a number or null, got nan$"),
            ({"survival": {"override_days": {"mid": float("nan")}}}, r"^mid must be a number, got nan$"),
            ({"survival": {"cap_days": float("inf")}}, r"^cap_days must be a number, got inf$"),
            ({"survival": {"cap_days": int("9" * 400)}}, r"^cap_days must be a number, got 9{400}$"),
            ({"survival": {"override_days": {"short": 400}}},
             r"^override value 400.0 for short falls outside its own class bin$"),
        ],
        ids=["uncertainty", "metrics", "survival", "phantom",
             "ols-feature", "forest-feature", "gate-region", "override-class",
             "zero-trees", "fractional-trees", "text-trees", "negative-depth", "deep", "float-depth",
             "text-nesting", "fractional-size", "text-size", "scalar-thresholds", "scalar-dims", "two-dims",
             "text-gate", "boolean-override-days", "negative-cap", "zero-cap", "override-prob-above-1",
             "override-prob-below-0", "inverted-bins", "nan-bin", "unknown-preset", "zero-dim", "unknown-connectivity",
             "nan-threshold", "nan-sentinel", "nan-override-days", "infinite-cap", "huge-cap",
             "override-days-bin"],
    )
    def test_other_rejections(self, doc, message):
        with pytest.raises(ValueError, match=message):
            parse_config(doc)

    def test_non_mapping_file_rejected(self, tmp_path):
        path = tmp_path / "conf.yaml"
        path.write_text("- refine\n- survival\n")
        with pytest.raises(ValueError, match="conf.yaml: config must be a mapping"):
            load_config(path)

    def test_enums_parsed(self):
        cfg = parse_config(
            {"refine": {"connectivity": "FACE6", "confidence_gate": {"tc": 0.5}}}
        )
        assert cfg.refine.connectivity is Connectivity.FACE6
        assert cfg.refine.confidence_gate == {
            RegionLabel.WHOLE_TUMOR: 0.90,
            RegionLabel.TUMOR_CORE: 0.5,
            RegionLabel.ENHANCING_TUMOR: 0.80,
        }

    def test_loss_section_rejected(self):
        # The loss constants are LossConfig library defaults; no command reads them.
        with pytest.raises(ValueError, match="unknown top-level config key\\(s\\): loss"):
            parse_config({"loss": {"gamma": 3.5}})

    def test_bad_gate_value_is_not_an_unknown_region(self):
        with pytest.raises(ValueError, match="wt must be a number, got 'high'"):
            parse_config({"refine": {"confidence_gate": {"wt": "high"}}})

    def test_non_mapping_section_rejected(self):
        with pytest.raises(ValueError, match="refine config must be a mapping"):
            parse_config({"refine": 5})

    def test_bad_connectivity_named(self):
        with pytest.raises(ValueError, match="unknown connectivity"):
            parse_config({"refine": {"connectivity": "neighbors8"}})

    def test_default_yaml_is_pinned(self):
        assert default_config_yaml() == DEFAULT_CONFIG_YAML

    @settings(max_examples=200, deadline=None)
    @given(cfg=non_default_configs())
    def test_non_default_config_round_trips(self, cfg):
        assert parse_config(yaml.safe_load(yaml.safe_dump(_to_doc(cfg)))) == cfg


# default_config_yaml() as written by init-config, key by key.
DEFAULT_CONFIG_YAML = """\
refine:
  base_threshold: 0.5
  fallback_threshold: 0.05
  confidence_gate:
    wt: 0.9
    tc: 0.75
    et: 0.8
  min_component_size: 10
  failsafe_min_voxels: 1000
  connectivity: corner26
  enforce_nesting: false
uncertainty:
  thresholds:
  - 0.0
  - 25.0
  - 50.0
  - 75.0
  - 100.0
metrics:
  hd95_empty_sentinel: null
survival:
  ols_features:
  - age
  forest_features:
  - age
  - n_tumors
  - n_cores
  n_trees: 1000
  max_depth: 3
  cap_days: 1000.0
  override_prob: 0.5
  override_days:
    short: 299.0
    mid: 375.0
    long: 451.0
  short_max_days: 300.0
  long_min_days: 450.0
phantom:
  preset: hgg-like
  dims:
  - 48
  - 48
  - 48
"""

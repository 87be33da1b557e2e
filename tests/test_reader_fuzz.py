"""Fuzz of the NIfTI readers: a damaged file either reads or raises a
ValueError that names it; no other exception escapes ``read_nifti`` or
``read_label_volume``."""
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gzip_encode
from uqseg.nifti import read_label_volume, read_nifti, write_nifti
from uqseg.volumes import Volume3D

# (offset, size) of each header field the reader interprets or checks
FIELDS = {
    "sizeof_hdr": (0, 4),
    "dim": (40, 16),
    "datatype": (70, 2),
    "bitpix": (72, 2),
    "pixdim": (76, 32),
    "vox_offset": (108, 4),
    "scl_slope": (112, 4),
    "scl_inter": (116, 4),
    "magic": (344, 4),
}
FLIPPED = ("dim", "datatype", "bitpix", "vox_offset", "scl_slope")
KINDS = ("uint8", "int16", "float32")
READERS = (read_nifti, read_label_volume)

pytestmark = pytest.mark.usefixtures("inflater")


def valid_file(kind):
    """The bytes of a small valid ``.nii`` of one dtype: a label map, intensities or probabilities."""
    rng = np.random.default_rng(KINDS.index(kind))
    if kind == "uint8":
        values = np.asarray([0, 1, 2, 4])[rng.integers(0, 4, (4, 3, 5))]
    elif kind == "int16":
        values = rng.integers(-300, 300, (3, 5, 4))
    else:
        values = rng.random((5, 4, 3))
    return build(Volume3D(values.astype(np.float64)), kind)


def build(vol, kind):
    """``vol`` written by the library as ``kind``, read back as bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "v.nii"
        write_nifti(vol, path, dtype=kind)
        return path.read_bytes()


VALID = {kind: valid_file(kind) for kind in KINDS}


def expect_read_or_named_error(path):
    for reader in READERS:
        try:
            reader(path)
        except ValueError as exc:
            assert str(path) in str(exc), f"{reader.__name__}: {exc}"


def write(path, blob):
    path.write_bytes(gzip_encode(blob) if path.name.endswith(".gz") else blob)
    return path


@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
@pytest.mark.parametrize("kind", KINDS)
def test_truncation_at_every_field_and_in_the_payload(tmp_path, kind, suffix):
    blob = VALID[kind]
    cuts = {0, 1, 347, 348, 351, 352, 353, len(blob) // 2, len(blob) - 1}
    for offset, size in FIELDS.values():
        cuts.update({offset, offset + 1, offset + size // 2, offset + size - 1, offset + size})
    path = tmp_path / f"cut{suffix}"
    for cut in sorted(cuts):
        with pytest.raises(ValueError, match="truncated") as info:
            read_nifti(write(path, blob[:cut]))
        assert str(path) in str(info.value)
        expect_read_or_named_error(path)
    if suffix == ".nii.gz":  # the gzip stream itself cut short
        whole = gzip_encode(blob)
        for cut in (1, 10, len(whole) // 2, len(whole) - 1):
            path.write_bytes(whole[:cut])
            with pytest.raises(ValueError, match=str(path)):
                read_nifti(path)
            expect_read_or_named_error(path)


@pytest.mark.parametrize("kind", KINDS)
def test_dim0_from_0_to_8(tmp_path, kind):
    path = tmp_path / "dim0.nii"
    for dim0 in range(9):
        blob = bytearray(VALID[kind])
        struct.pack_into("<h", blob, 40, dim0)
        write(path, bytes(blob))
        if 3 <= dim0 <= 7:  # the writer stores 1 in dim[4:8]
            assert read_nifti(path)[0].dims == read_nifti(write(path, VALID[kind]))[0].dims
        else:
            with pytest.raises(ValueError, match="only 3D single-frame"):
                read_nifti(path)
            expect_read_or_named_error(path)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(KINDS),
    suffix=st.sampled_from([".nii", ".nii.gz"]),
    flips=st.lists(
        st.tuples(st.sampled_from(FLIPPED), st.integers(min_value=0, max_value=127)),
        min_size=1,
        max_size=4,
    ),
)
def test_bit_flips_in_interpreted_fields(tmp_path_factory, kind, suffix, flips):
    blob = bytearray(VALID[kind])
    for field, bit in flips:
        offset, size = FIELDS[field]
        bit %= size * 8
        blob[offset + bit // 8] ^= 1 << (bit % 8)
    path = write(tmp_path_factory.mktemp("flip") / f"v{suffix}", bytes(blob))
    expect_read_or_named_error(path)


@pytest.mark.parametrize(
    "slope, inter, payload",
    [(float("inf"), 0.0, 0.5), (-float("inf"), 0.0, 0.5), (1.0, float("nan"), 0.5),
     (2.0, float("inf"), 0.5), (0.0, 0.0, float("nan")), (1.0, 0.0, float("inf"))],
)
def test_non_finite_values_name_path(tmp_path, slope, inter, payload):
    blob = bytearray(build(Volume3D(np.full((3, 3, 3), 0.25)), "float32"))
    struct.pack_into("<2f", blob, 112, slope, inter)
    struct.pack_into("<f", blob, 352 + 4 * 13, payload)
    path = write(tmp_path / "scaled.nii", bytes(blob))
    with pytest.raises(ValueError, match="scaled.nii: volume contains non-finite values"):
        read_nifti(path)


@pytest.mark.parametrize("field", ["scl_slope bit 30", "scl_inter inf", "scl_inter nan"])
@pytest.mark.parametrize("kind", KINDS)
def test_non_finite_scaling_refused_before_arithmetic(tmp_path, kind, field):
    """A non-finite scaling pair is refused, naming the file, before numpy can warn."""
    blob = bytearray(VALID[kind])  # written with scl_slope 1.0, scl_inter 0.0
    if field == "scl_slope bit 30":
        blob[115] ^= 0x40  # 1.0 (0x3f800000) becomes inf (0x7f800000)
    else:
        struct.pack_into("<f", blob, 116, float(field.split()[1]))
    path = write(tmp_path / "v.nii", bytes(blob))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="v.nii: volume contains non-finite values"):
            read_nifti(path)


@pytest.mark.parametrize("layout", ["one member", "two members"])
@pytest.mark.parametrize("field", ["vox_offset 1e30", "vox_offset bit 29", "dims 32767 cubed"])
def test_gzip_declaring_more_than_it_holds_is_truncated(tmp_path, field, layout):
    """A header that declares more bytes than a C size or memory can hold reads as a truncated file."""
    blob = bytearray(VALID["float32"])
    if field == "vox_offset 1e30":
        struct.pack_into("<f", blob, 108, 1e30)
    elif field == "vox_offset bit 29":
        blob[111] ^= 0x20  # 352.0 (0x43b00000) becomes about 6.5e21 (0x63b00000)
    else:
        struct.pack_into("<3h", blob, 42, 32767, 32767, 32767)
    members = [bytes(blob)] if layout == "one member" else [bytes(blob[:100]), bytes(blob[100:])]
    path = tmp_path / "v.nii.gz"
    path.write_bytes(b"".join(map(gzip_encode, members)))
    with pytest.raises(ValueError, match="v.nii.gz: truncated file, expected"):
        read_nifti(path)
    expect_read_or_named_error(path)

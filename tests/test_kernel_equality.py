"""Seeded fuzz: the sort-based uncertainty curve and the bounding-box HD95
must equal their full-volume predecessors in tests/oracles.py exactly (==),
and component counting and small-component removal on scipy's own labels
inside the foreground's box must equal the former first-appearance relabel
over the whole grid, the box ``find_objects``' box and the boxed gather the
whole-grid gather; the pooled gzip writer must
equal its serial oracle byte for byte, and the one-pass reader must return
or reject what the former reader did. Volumes read in their file dtype must
give what the former float64 read, label and fusion paths gave. Slab fusion,
in-place certainty and the one-buffer NIfTI writer must give the bits, bytes
and errors of the full-volume fusion, certainty expression and
concatenated-payload writer."""
import functools
import gzip
import os
import struct
import subprocess
import sys
import warnings
import zlib

import numpy as np
import pytest

from oracles import (
    concatenated_nifti,
    find_objects_box,
    first_appearance_components,
    first_appearance_remove_small,
    float64_label_read,
    float64_read,
    full_grid_float64,
    full_volume_certainty,
    full_volume_fused_mean,
    full_volume_hd95,
    gzip_encode,
    gzip_read_bytes,
    isin_masks,
    loop_fused_mean,
    loop_uncertainty_curve,
    serial_chunked_gzip,
    tree_arrays,
    tree_forest,
    tree_forest_proba,
)
from uqseg.ensemble import PredictionPair, ensemble_with_flips, fuse_single
from uqseg.losses import batch_loss
from uqseg.metrics import hausdorff95
from uqseg.nifti import DEFLATE_CHUNK, _read_bytes, gzip_deflate, read_label_volume, read_nifti, write_nifti
from uqseg.refine import (
    RefinementConfig,
    brats_labels_to_masks,
    masks_to_brats_labels,
    mean_region_confidence,
    refine_segmentation,
    threshold_mask,
)
from uqseg.survival import (
    CLASS_ORDER,
    ClassBins,
    SurvivalConfig,
    SurvivalRecord,
    cross_validate,
    fit_forest,
    fit_fusion,
    predict_forest_proba,
    predict_fused,
)
from uqseg.uncertainty import (
    certainty_from_q,
    certainty_negative_only,
    certainty_symmetric,
    evaluate_uncertainty,
    negative_only_uncertainty_raw,
    symmetric_uncertainty_raw,
)
from uqseg.volumes import (
    Axis,
    Connectivity,
    DegenerateVolumeWarning,
    Mask3D,
    Volume3D,
    count_components,
    foreground_box,
    remove_small_components,
    standardize_nonzero,
)

CASES = 400


def random_mask(rng, dims, kind):
    if kind == "noise":
        return rng.random(dims) < rng.choice([0.05, 0.3, 0.7])
    if kind == "blob":
        grid = np.indices(dims).transpose(1, 2, 3, 0)
        centre = rng.random(3) * np.asarray(dims)
        radius = 1.0 + rng.random() * max(dims) / 3.0
        return ((grid - centre) ** 2).sum(axis=-1) <= radius**2
    if kind == "faces":
        mask = rng.random(dims) < 0.3
        for axis in range(3):
            for end in (0, -1):
                face = [slice(None)] * 3
                face[axis] = end
                face[(axis + 1) % 3] = rng.integers(dims[(axis + 1) % 3])
                mask[tuple(face)] = True
        return mask
    return np.zeros(dims, dtype=bool)


def fuzz_case(i):
    """Case ``i``: the index cycles mask kinds, certainty kinds, grids and spacing."""
    rng = np.random.default_rng([7, i])
    dims = tuple(int(d) for d in rng.integers(1, 16, size=3))
    seg_kind, gt_kind = [
        ("noise", "noise"), ("blob", "blob"), ("empty", "blob"),
        ("noise", "empty"), ("empty", "empty"), ("faces", "faces"), ("blob", "faces"),
    ][i % 7]
    seg = random_mask(rng, dims, seg_kind)
    gt = random_mask(rng, dims, gt_kind)
    if (i // 7) % 2:
        cert = rng.integers(0, 101, size=dims).astype(float)
    else:
        cert = rng.random(dims) * 100.0
    grids = [
        (float(rng.integers(0, 101)),),
        tuple(np.sort(rng.choice([0.0, 12.5, 50.0, 50.0, 75.0, 100.0], size=6))),
        tuple(float(t) for t in range(101)),
        tuple(np.sort(rng.random(rng.integers(2, 12)) * 100.0)),
        (0.0, 25.0, 25.0, 50.0, 75.0, 100.0, 100.0),
    ]
    taus = grids[(i // 14) % len(grids)]
    spacing = (1.0, 1.0, 1.0) if i % 3 == 0 else tuple(float(v) for v in 0.4 + rng.random(3) * 2.6)
    return seg, gt, cert, taus, spacing


def test_fuzz_set_covers_the_edge_cases():
    seen = set()
    for i in range(CASES):
        seg, gt, cert, taus, spacing = fuzz_case(i)
        integral = bool(np.all(cert == np.round(cert)))
        flags = {
            "single threshold": len(taus) == 1,
            "duplicate thresholds": len(set(taus)) < len(taus),
            "seg empty": not seg.any() and gt.any(),
            "gt empty": seg.any() and not gt.any(),
            "both empty": not seg.any() and not gt.any(),
            "touches every face": min(seg.shape) > 2 and all(
                np.take(seg, end, axis=axis).any() for axis in range(3) for end in (0, -1)
            ),
            "integer certainty": integral,
            "non-integer certainty": not integral,
            "anisotropic spacing": len(set(spacing)) == 3,
            "box inside the array": seg.any() and not seg[0].any() and not seg[-1].any(),
        }
        seen.update(name for name, hit in flags.items() if hit)
    assert seen == set(flags)


def test_uncertainty_curve_equals_loop_oracle():
    for i in range(CASES):
        seg, gt, cert, taus, spacing = fuzz_case(i)
        curve = evaluate_uncertainty(
            Mask3D(seg, spacing), Mask3D(gt, spacing), Volume3D(cert, spacing), taus
        )
        got = (curve.dice_at, curve.ftp_at, curve.ftn_at,
               curve.dice_auc, curve.ftp_auc, curve.ftn_auc)
        assert got == loop_uncertainty_curve(seg, gt, cert, taus), f"case {i}"


def test_hd95_equals_full_volume_oracle():
    for i in range(CASES):
        seg, gt, _, _, spacing = fuzz_case(i)
        a, b = Mask3D(seg, spacing), Mask3D(gt, spacing)
        if not seg.any() and not gt.any():
            assert hausdorff95(a, b) == 0.0
        elif not seg.any() or not gt.any():
            with pytest.raises(ValueError, match="exactly one mask is empty"):
                hausdorff95(a, b)
        else:
            assert hausdorff95(a, b) == full_volume_hd95(seg, gt, spacing), f"case {i}"


# --- connected components ---------------------------------------------------

COMPONENT_CASES = 600
COMPONENT_KINDS = ("empty", "full", "single", "thin", "faces", "noise", "blob", "inset")
MIN_SIZES = (0, 1, 2, 5, 10)
COMPONENT_CYCLE = len(COMPONENT_KINDS) * 3 * len(MIN_SIZES)


def inset_mask(rng):
    """Noise whose bounding box lies strictly inside a larger grid, or touches one face."""
    dims = tuple(int(d) for d in rng.integers(3, 14, size=3))
    lo = [int(rng.integers(1, d - 1)) for d in dims]
    hi = [int(rng.integers(start + 1, d)) for start, d in zip(lo, dims)]
    face = int(rng.integers(-1, 6))  # -1: no face; else axis face // 2, low or high end
    if face >= 0:
        axis, high = divmod(face, 2)
        if high:
            hi[axis] = dims[axis]
        else:
            lo[axis] = 0
    mask = np.zeros(dims, dtype=bool)
    box = tuple(slice(start, stop) for start, stop in zip(lo, hi))
    mask[box] = rng.random(mask[box].shape) < 0.4
    mask[tuple(lo)] = mask[tuple(stop - 1 for stop in hi)] = True
    return mask


def component_case(i):
    """Case ``i``: the index cycles mask kinds, then connectivities, then ``min_size``;
    every other full cycle is Fortran-ordered, the layout of every volume read from a file."""
    rng = np.random.default_rng([13, i])
    dims = tuple(int(d) for d in rng.integers(1, 12, size=3))
    kind = COMPONENT_KINDS[i % len(COMPONENT_KINDS)]
    if kind == "full":
        mask = np.ones(dims, dtype=bool)
    elif kind == "single":
        mask = np.zeros(dims, dtype=bool)
        mask[tuple(rng.integers(dims))] = True
    elif kind == "thin":
        mask = np.zeros(dims, dtype=bool)
        axis = int(rng.integers(3))
        plane = [slice(None)] * 3
        plane[axis] = int(rng.integers(dims[axis]))
        mask[tuple(plane)] = rng.random(mask[tuple(plane)].shape) < 0.6
    elif kind == "inset":
        mask = inset_mask(rng)
    else:
        mask = random_mask(rng, dims, kind)
    if (i // COMPONENT_CYCLE) % 2:
        mask = np.asfortranarray(mask)
    connectivity = list(Connectivity)[(i // len(COMPONENT_KINDS)) % 3]
    min_size = MIN_SIZES[(i // (3 * len(COMPONENT_KINDS))) % len(MIN_SIZES)]
    return mask, connectivity, min_size


def faces_touched(mask):
    """How many of the grid's six faces the foreground touches."""
    return sum(np.take(mask, end, axis=axis).any() for axis in range(3) for end in (0, -1))


def test_component_set_covers_the_edge_cases():
    seen = set()
    for i in range(COMPONENT_CASES):
        mask, connectivity, min_size = component_case(i)
        filtered = first_appearance_remove_small(mask, min_size, connectivity.structure())
        extents = [np.flatnonzero(np.any(mask, axis=tuple({0, 1, 2} - {a}))) for a in range(3)]
        box = find_objects_box(mask)
        flags = {
            "empty": not mask.any(),
            "full": mask.size > 1 and mask.all(),
            "single voxel": mask.sum() == 1,
            "one voxel thick": mask.sum() > 1 and any(
                mask.shape[a] > 1 and e.size and e[0] == e[-1] for a, e in enumerate(extents)
            ),
            "touches every face": min(mask.shape) > 2 and not mask.all() and faces_touched(mask) == 6,
            "several components": first_appearance_components(mask, connectivity.structure())[2] > 1,
            "filter drops some but not all": 0 < filtered.sum() < mask.sum(),
            "box smaller than the grid": box is not None
            and box != tuple(slice(0, d) for d in mask.shape),
            "box strictly inside the grid": mask.any() and faces_touched(mask) == 0,
            "box touches exactly one face": faces_touched(mask) == 1,
            "Fortran-ordered": mask.flags.f_contiguous and not mask.flags.c_contiguous,
        }
        seen.update(name for name, hit in flags.items() if hit)
        seen.update((connectivity, min_size))
    assert seen == set(flags) | set(Connectivity) | set(MIN_SIZES)


def test_components_equal_first_appearance_oracle():
    for i in range(COMPONENT_CASES):
        mask, connectivity, min_size = component_case(i)
        structure = connectivity.structure()
        _, _, count = first_appearance_components(mask, structure)
        assert count_components(Mask3D(mask), connectivity) == count, f"case {i}"
        got = remove_small_components(Mask3D(mask), min_size, connectivity).data
        want = first_appearance_remove_small(mask, min_size, structure)
        assert got.dtype == want.dtype and np.array_equal(got, want), f"case {i}"


def box_layouts(mask):
    """The mask as given, Fortran-ordered, and as two non-contiguous views of equal values."""
    padded = np.zeros((2 * mask.shape[0], mask.shape[1] + 1, mask.shape[2]), dtype=bool)
    padded[::2, 1:] = mask
    reversed_z = np.ascontiguousarray(mask[:, :, ::-1])[:, :, ::-1]
    return mask, np.asfortranarray(mask), padded[::2, 1:], reversed_z


def test_foreground_box_equals_find_objects():
    masks = [component_case(i)[0] for i in range(COMPONENT_CASES)]
    for i in range(CASES):
        seg, gt, _, _, _ = fuzz_case(i)
        masks += [seg, gt, seg | gt]
    for i, mask in enumerate(masks):
        for layout in box_layouts(mask):
            assert np.array_equal(layout, mask)
            assert foreground_box(layout) == find_objects_box(layout), f"mask {i}"


def test_boxed_gather_equals_full_grid_gather():
    for i in range(COMPONENT_CASES):
        mask, _, _ = component_case(i)
        rng = np.random.default_rng([17, i])
        data = np.asfortranarray(rng.random(mask.shape).astype(np.float32))
        for where in box_layouts(mask):
            got = Volume3D(data).float64(where)
            want = full_grid_float64(data, where)
            assert got.dtype == want.dtype and np.array_equal(got, want), f"case {i}"
            mean = mean_region_confidence(Volume3D(data), Mask3D(where))
            assert mean == (float(want.mean()) if want.size else None), f"case {i}"


# --- gzip codec -------------------------------------------------------------

CODEC_CASES = 200


def codec_payload(i):
    """Case ``i``: the index cycles payload sizes, then noisy/run-heavy float/uint8 data."""
    rng = np.random.default_rng([11, i])
    size = [
        0,
        int(rng.integers(1, DEFLATE_CHUNK)),
        DEFLATE_CHUNK * int(rng.integers(1, 4)),
        DEFLATE_CHUNK * int(rng.integers(1, 3)) + 1,
        int(rng.integers(DEFLATE_CHUNK, 3 * DEFLATE_CHUNK)),
    ][i % 5]
    is_float, noisy = divmod((i // 5) % 4, 2)
    itemsize = 4 if is_float else 1
    count = -(-size // itemsize)
    if noisy:
        values = rng.random(count) if is_float else rng.integers(0, 101, count)
    else:
        levels = rng.random(8) if is_float else rng.integers(0, 5, 8)
        runs = rng.integers(1, 4000, count // 100 + 1)
        values = np.repeat(levels[rng.integers(0, 8, runs.size)], runs)[:count]
        values = np.resize(values, count)
    data = values.astype("<f4" if is_float else "u1").tobytes()[:size]
    return data, zlib.Z_DEFAULT_STRATEGY if is_float else zlib.Z_RLE


def test_codec_payloads_cover_the_edge_cases():
    sizes = [len(codec_payload(i)[0]) for i in range(CODEC_CASES)]
    assert 0 in sizes
    assert any(0 < n < DEFLATE_CHUNK for n in sizes)
    assert {n // DEFLATE_CHUNK for n in sizes if n and n % DEFLATE_CHUNK == 0} == {1, 2, 3}
    assert any(n > DEFLATE_CHUNK and n % DEFLATE_CHUNK == 1 for n in sizes)


def test_gzip_writer_equals_serial_oracle():
    for i in range(CODEC_CASES):
        payload, strategy = codec_payload(i)
        blob = gzip_deflate(payload, strategy)
        assert gzip.decompress(blob) == payload, f"case {i}"
        inflater = zlib.decompressobj(wbits=31)
        assert inflater.decompress(blob) == payload and inflater.eof, f"case {i}"
        assert inflater.unused_data == b"", f"case {i}: more than one member"
        assert blob[:4] == b"\x1f\x8b\x08\x00" and struct.unpack_from("<I", blob, 4) == (0,)
        assert blob == serial_chunked_gzip(payload, strategy), f"case {i}"


def with_header_fields(member, fname=None, extra=None, header_crc=None):
    """``member`` with FNAME, FEXTRA and/or FHCRC fields added to its header."""
    flags, fields = 0, b""
    if extra is not None:
        flags |= 0x04
        fields += struct.pack("<H", len(extra)) + extra
    if fname is not None:
        flags |= 0x08
        fields += fname + b"\x00"
    head = member[:3] + bytes([flags]) + member[4:10] + fields
    if header_crc is not None:
        head = bytes([head[0], head[1], head[2], flags | 0x02]) + head[4:]
        crc = zlib.crc32(head) & 0xFFFF if header_crc == "good" else 0xBEEF
        head += struct.pack("<H", crc)
    return head + member[10:]


def as_nifti(payload):
    """``payload``, zero-padded to whole KiB, behind the header of a uint8 volume of exactly its size."""
    rows = max(1, -(-len(payload) // 1024))
    header = bytearray(348)
    struct.pack_into("<i", header, 0, 348)
    struct.pack_into("<8h", header, 40, 3, 1024, rows, 1, 1, 1, 1, 1)
    struct.pack_into("<2h", header, 70, 2, 8)
    struct.pack_into("<f", header, 108, 352.0)
    header[344:348] = b"n+1\x00"
    return bytes(header) + bytes(4) + payload.ljust(1024 * rows, b"\x00")


def reader_inputs():
    """NIfTI files as gzip streams the former reader accepts, and ones it refuses.

    Every stream inflates to at most the volume its header declares, so each one takes the
    reader's capped path and is accepted or refused as ``gzip.decompress`` would.
    """
    payload, strategy = codec_payload(8)  # noisy: the second member below is large
    volume, other = as_nifti(payload), as_nifti(codec_payload(11)[0])
    ours, theirs = gzip_deflate(volume, strategy), gzip_encode(volume)
    split = gzip_deflate(volume[:200_000], strategy) + gzip_encode(volume[200_000:])
    accepted = {
        "writer": ours,
        "gzip.compress": theirs,
        "other": gzip_encode(other),
        "empty": gzip_encode(b""),
        "multi-member": split,
        "header-across-members": gzip_encode(volume[:100]) + gzip_encode(volume[100:]),
        "multi-member-empty-first": gzip_encode(b"") + theirs,
        "nul-padded": ours + b"\x00" * 7,
        "multi-member-nul-padded": gzip_encode(volume[:100]) + b"\x00" * 3 + gzip_encode(volume[100:]),
        "fname": with_header_fields(theirs, fname=b"case.nii"),
        "fextra": with_header_fields(theirs, extra=b"AB\x02\x00hi"),
        "fhcrc": with_header_fields(theirs, header_crc="good"),
        "fhcrc-wrong": with_header_fields(theirs, header_crc="bad"),
        "all-fields": with_header_fields(ours, fname=b"x", extra=b"", header_crc="good"),
    }
    corrupt = {
        "truncated-header": ours[:6],
        "truncated-stream": ours[: len(ours) // 2],
        "truncated-trailer": ours[:-3],
        "bad-block": ours[:10] + b"\xff" + ours[11:],
        "bad-crc": ours[:-8] + bytes([ours[-8] ^ 1]) + ours[-7:],
        "bad-length": ours[:-4] + bytes([ours[-4] ^ 1]) + ours[-3:],
        "trailing-garbage": ours + b"junk",
        "trailing-copy-of-isize": ours + ours[-4:],
        "multi-member-trailing-garbage": split + b"junk",
        "bad-second-member": split[:-8] + b"\x00" * 8,
        "truncated-second-member": split[:-1000],
        "bad-method": ours[:2] + b"\x07" + ours[3:],
    }
    return accepted, corrupt


def test_reader_inputs_declare_their_volume():
    accepted, _ = reader_inputs()
    for name, blob in accepted.items():
        volume = gzip.decompress(blob)
        if volume:
            rows = struct.unpack_from("<h", volume, 44)[0]
            assert 352 + 1024 * rows == len(volume), name


@pytest.mark.usefixtures("inflater")
def test_gzip_reader_equals_former_reader(tmp_path):
    accepted, corrupt = reader_inputs()
    path = tmp_path / "x.nii.gz"
    for name, blob in accepted.items():
        path.write_bytes(blob)
        assert _read_bytes(path) == gzip.decompress(blob) == gzip_read_bytes(path), name
    for name, blob in corrupt.items():
        path.write_bytes(blob)
        with pytest.raises(ValueError) as before:
            gzip_read_bytes(path)
        with pytest.raises(ValueError) as after:
            _read_bytes(path)
        assert str(after.value) == str(before.value), name
        assert type(after.value.__cause__) is type(before.value.__cause__), name


def multi_chunk_volume():
    rng = np.random.default_rng(5)
    return Volume3D(rng.random((64, 64, 40)))  # 640 KiB of float32: three chunks


def assert_one_gzip_member(blob, payload):
    """``blob`` is one gzip member, mtime 0, that inflates to ``payload``."""
    assert gzip.decompress(blob) == payload
    inflater = zlib.decompressobj(wbits=31)
    assert inflater.decompress(blob) == payload and inflater.eof
    assert inflater.unused_data == b"", "more than one member"
    assert blob[:4] == b"\x1f\x8b\x08\x00" and struct.unpack_from("<I", blob, 4) == (0,)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
def test_gzip_bytes_do_not_depend_on_cpu_count(tmp_path, inflater):
    write_nifti(multi_chunk_volume(), tmp_path / "in.nii")
    write_nifti(multi_chunk_volume(), tmp_path / "here.nii.gz")
    code = (
        "import os, sys\n"
        "os.sched_setaffinity(os.getpid(), {min(os.sched_getaffinity(0))})\n"
        "assert len(os.sched_getaffinity(0)) == 1\n"
        "from uqseg import nifti\n"
        "if sys.argv[3] == 'zlib':\n"
        "    nifti._libdeflate = lambda: None\n"
        "nifti.write_nifti(nifti.read_nifti(sys.argv[1])[0], sys.argv[2])\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code, str(tmp_path / "in.nii"),
                    str(tmp_path / "pinned.nii.gz"), inflater], env=env, check=True, timeout=120)
    assert (tmp_path / "pinned.nii.gz").read_bytes() == (tmp_path / "here.nii.gz").read_bytes()
    assert_one_gzip_member((tmp_path / "here.nii.gz").read_bytes(), (tmp_path / "in.nii").read_bytes())


@pytest.mark.parametrize("cpus", [None, 3])
def test_gzip_bytes_without_affinity_call(tmp_path, monkeypatch, cpus, inflater):
    write_nifti(multi_chunk_volume(), tmp_path / "affinity.nii.gz")
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    write_nifti(multi_chunk_volume(), tmp_path / "count.nii.gz")
    assert (tmp_path / "count.nii.gz").read_bytes() == (tmp_path / "affinity.nii.gz").read_bytes()


def sphere_profile(dims, center, width):
    """A sigmoid falling from 1 to 0 across radius 12 around ``center``, ``width`` voxels wide."""
    r = np.sqrt(sum((axis - c) ** 2 for axis, c in zip(np.indices(dims, dtype=np.float64), center)))
    return 1.0 / (1.0 + np.exp((r - 12.0) / width))


@functools.cache
def payload_classes():
    """Seeded 64×64×40 volumes, one per payload class: {name: (values, dtype, run_heavy)}.

    A run-heavy payload repeats whole stretches of voxels: zero runs, few distinct values or
    rows that mirror each other. Only noise-dominated float32 payloads may leave zlib.
    """
    dims = (64, 64, 40)
    rng = np.random.default_rng(61)
    smooth = sphere_profile(dims, (30.37, 33.81, 18.23), 8.0)  # off the grid: no two rows alike
    p = [np.clip(sphere_profile(dims, (31.5, 32.0, 19.6), 0.25) + rng.normal(0.0, 0.01, dims), 0.0, 1.0)
         for _ in range(4)]
    q = np.clip(np.where(smooth > 0.5, 0.05, 0.02) + rng.normal(0.0, 0.01, dims), 0.0, 0.5)
    intensity = np.where(smooth > 0.1, rng.normal(400.0, 60.0, dims).round(), 0.0)
    labels = ((smooth > 0.2).astype(np.uint8) + (smooth > 0.5) + 2 * (smooth > 0.8)).astype(np.uint8)
    return {
        "noisy sigmoid": (smooth + rng.normal(0.0, 0.01, dims), "float32", False),
        "fused": (np.mean(p, axis=0), "float32", False),
        "certainty": (100.0 * (1.0 - 2.0 * q), "float32", False),
        "smooth sigmoid": (smooth, "float32", False),
        "raw p (zero-heavy)": (p[0], "float32", True),
        "mirrored sigmoid": (sphere_profile(dims, (32.0, 32.0, 20.0), 8.0), "float32", True),
        "rounded to 3 decimals": (smooth.round(3), "float32", True),
        "rounded to 2 decimals": (smooth.round(2), "float32", True),
        "standardized": (standardize_nonzero(Volume3D(intensity)).data, "float32", True),
        "labels": (labels, "uint8", True),
        "rounded certainty": (np.rint(100.0 * (1.0 - 2.0 * q)), "uint8", True),
    }


@functools.cache
def payload_class_oracle(name):
    """The serial chunked level-9 member of a payload class's file: today's zlib bytes."""
    from uqseg.nifti import _build_header

    values, dtype, _ = payload_classes()[name]
    header = _build_header(values.shape, (1.0, 1.0, 1.0), NIFTI_CODES[np.dtype(dtype).newbyteorder("<")], None)
    return concatenated_nifti(values, header, dtype, True)


@pytest.mark.parametrize("inflater", ["libdeflate", "zlib"], indirect=True)
def test_writer_size_per_payload_class(tmp_path, inflater):
    """No class grows more than 1.5 % over the serial zlib oracle; run-heavy ones, and every one
    through zlib, are its bytes; through libdeflate the noise-dominated ones are not."""
    for name, (values, dtype, run_heavy) in payload_classes().items():
        path = tmp_path / "v.nii.gz"
        write_nifti(Volume3D(values), path, dtype=dtype)
        blob, oracle = path.read_bytes(), payload_class_oracle(name)
        assert np.array_equal(read_nifti(path)[0].data, values.astype(dtype)), name
        assert gzip.decompress(blob) == gzip.decompress(oracle), name
        assert len(blob) <= 1.015 * len(oracle), (name, len(blob), len(oracle))
        if run_heavy or inflater == "zlib":
            assert blob == oracle, name
        else:
            assert blob != oracle, f"{name}: not deflated by libdeflate"


# --- volumes in their file dtype ------------------------------------------------

CFG = RefinementConfig()
# The fallback and base thresholds, then the WT, TC and ET confidence gates.
CUTS = (CFG.fallback_threshold, CFG.base_threshold, *CFG.confidence_gate.values())
# Each cut as float32 and the float32 values one ulp either side of it.
AT_CUTS = [np.nextafter(np.float32(t), np.float32(d)) for t in CUTS for d in (-1, 1)]
AT_CUTS += [np.float32(t) for t in CUTS]
SPECIALS = np.array([-0.0, 0.0, 1.0, *AT_CUTS], dtype=np.float32)
SCALINGS = ((0.0, 0.0), (float("nan"), 3.0), (1.0, 0.0), (2.0, 0.5))
DTYPE_KINDS = ("prob", "pair", "zero", "uint8 labels", "int16 labels", "float32 labels", "intensity")
DTYPE_CASES = 224  # every kind under every scaling, as .nii and .nii.gz, four times
NIFTI_CODES = {np.dtype("<u1"): 2, np.dtype("<i2"): 4, np.dtype("<f4"): 16}


def with_specials(rng, values, top=1.0):
    """``values`` with about a fifth of the voxels set to SPECIALS no larger than ``top``."""
    values = values.astype(np.float32)
    pick = rng.random(values.shape) < 0.2
    choices = SPECIALS[SPECIALS <= top]
    values[pick] = choices[rng.integers(0, choices.size, int(pick.sum()))]
    return values


def blob_probability(rng, dims):
    """A sphere of high probability in low noise, so thresholds leave components."""
    grid = np.indices(dims).transpose(1, 2, 3, 0)
    r = np.sqrt(((grid - rng.random(3) * np.asarray(dims)) ** 2).sum(axis=-1))
    level = rng.choice([0.6, 0.8, 0.95])
    return np.clip(level / (1.0 + np.exp(2.0 * (r - 1.0 - rng.random() * 4.0))) + rng.random(dims) * 0.1, 0, 1)


def dtype_case(i):
    """Case ``i``: (kind, arrays in their file dtype, (slope, inter), file suffix).

    The index cycles kinds, then scalings, then the suffix.
    """
    rng = np.random.default_rng([17, i])
    kind = DTYPE_KINDS[i % len(DTYPE_KINDS)]
    scaling = SCALINGS[(i // len(DTYPE_KINDS)) % len(SCALINGS)]
    suffix = (".nii", ".nii.gz")[(i // (len(DTYPE_KINDS) * len(SCALINGS))) % 2]
    dims = tuple(int(d) for d in rng.integers(3, 12, size=3))
    if kind == "prob" and i % 4 == 0:  # wide tumours: means over more than 8192 voxels
        dims = (40, 32, 24)
        arrays = [with_specials(rng, np.where(rng.random(dims) < 0.6, 0.55 + 0.45 * rng.random(dims),
                                              1e-3 * rng.random(dims))) for _ in range(3)]
    elif kind == "prob":  # wt, tc, et channels
        arrays = [with_specials(rng, blob_probability(rng, dims)) for _ in range(3)]
    elif kind == "pair":  # p and q of two models
        arrays = [with_specials(rng, blob_probability(rng, dims) * top, top)
                  for _ in range(2) for top in (1.0, 0.5)]
    elif kind == "zero":  # an all-zero map for each channel, signed zeros mixed in
        arrays = [np.where(rng.random(dims) < 0.5, -0.0, 0.0).astype(np.float32) for _ in range(3)]
    elif kind == "intensity":
        arrays = [(rng.normal(0, 300, dims) * (rng.random(dims) < 0.7)).astype(np.int16),
                  with_specials(rng, rng.normal(0.5, 0.3, dims) * (rng.random(dims) < 0.7), 1.0)]
    else:
        dtype = {"uint8 labels": np.uint8, "int16 labels": np.int16, "float32 labels": np.float32}[kind]
        labels = np.asarray([0, 1, 2, 4])[rng.integers(0, 4, dims)]
        if i % 3 == 0:  # a value outside the label set
            labels.flat[rng.integers(labels.size)] = {np.uint8: 3, np.int16: -1}.get(dtype, 7)
        arrays = [labels.astype(dtype)]
        if dtype is np.float32 and i % 4 == 1:
            arrays[0].flat[rng.integers(labels.size)] = 1.5
        if dtype is np.float32:
            arrays[0][arrays[0] == 0] = -0.0
    if i % len(DTYPE_KINDS) == 0 and i // len(DTYPE_KINDS) % 8 == 3:
        arrays[0][...] = 0  # an all-zero map besides the "zero" kind
    return kind, arrays, scaling, suffix


def write_case(tmp_path, i):
    """The arrays of case ``i`` written as NIfTI files with the case's scaling."""
    kind, arrays, (slope, inter), suffix = dtype_case(i)
    paths = []
    for k, values in enumerate(arrays):
        header = bytearray(348)
        struct.pack_into("<i", header, 0, 348)
        struct.pack_into("<8h", header, 40, 3, *values.shape, 1, 1, 1, 1)
        code = NIFTI_CODES[values.dtype]
        struct.pack_into("<2h", header, 70, code, values.dtype.itemsize * 8)
        struct.pack_into("<4f", header, 76, 1.0, 1.0, 1.0, 2.0)
        struct.pack_into("<3f", header, 108, 352.0, slope, inter)
        header[344:348] = b"n+1\x00"
        blob = bytes(header) + bytes(4) + values.tobytes(order="F")
        path = tmp_path / f"case{i}-{k}{suffix}"
        path.write_bytes(gzip_encode(blob) if suffix.endswith(".gz") else blob)
        paths.append(path)
    return kind, paths, (slope, inter)


def unscaled(scaling):
    slope, inter = scaling
    return slope == 0.0 or np.isnan(slope) or (slope, inter) == (1.0, 0.0)


def isin_invalid(labels):
    return not np.all(np.isin(labels, (0, 1, 2, 4)))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_dtype_set_covers_the_edge_cases():
    seen = set()
    for i in range(DTYPE_CASES):
        kind, arrays, scaling, suffix = dtype_case(i)
        seen.update((kind, suffix, repr(scaling)))
        for values in arrays:
            raw = values.astype(np.float64)
            if values.dtype == np.float32:
                for v in SPECIALS:
                    if np.any((values == v) & (np.signbit(values) == np.signbit(v))):
                        seen.add(("special", float(v), bool(np.signbit(v))))
                # a voxel that a float32 comparison puts on the other side of a cut
                if any(np.any((values > np.float32(t)) != (raw > t)) for t in CUTS):
                    seen.add("float32 compare differs")
            if not values.any():
                seen.add(("all-zero", kind))
            if kind == "prob" and np.count_nonzero(raw > 0.5) > 8192:
                seen.add("wide mean")
        if kind.endswith("labels"):
            seen.add((kind, "invalid" if isin_invalid(arrays[0]) else "valid"))
    specials = {("special", float(v), bool(np.signbit(v))) for v in SPECIALS}
    assert specials <= seen
    assert "float32 compare differs" in seen and "wide mean" in seen
    assert {("all-zero", "zero"), ("all-zero", "prob")} <= seen
    assert set(DTYPE_KINDS) | {".nii", ".nii.gz"} | {repr(s) for s in SCALINGS} <= seen
    assert {(k, v) for k in DTYPE_KINDS if k.endswith("labels") for v in ("valid", "invalid")} <= seen


def test_reader_dtype_contract(tmp_path):
    """A file reads in its own dtype unless a scaling pair other than (1, 0) applies."""
    for i in range(0, DTYPE_CASES, 3):
        _, paths, scaling = write_case(tmp_path, i)
        for path in paths:
            vol, view = read_nifti(path)
            stored = {2: np.uint8, 4: np.int16, 16: np.float32}[view.datatype]
            assert vol.data.dtype == (stored if unscaled(scaling) else np.float64), f"case {i}"
    labels = np.zeros((3, 4, 5), dtype=np.uint8)
    labels[1, 1, 1], labels[2, 2, 2] = 4, 2
    write_nifti(Volume3D(labels), tmp_path / "labels.nii.gz", dtype="uint8")
    vol, _ = read_label_volume(tmp_path / "labels.nii.gz")
    assert vol.data.dtype == np.uint8
    assert masks_to_brats_labels(brats_labels_to_masks(vol)).data.dtype == np.uint8
    write_nifti(Volume3D(np.full((3, 3, 3), 0.25)), tmp_path / "p.nii")
    assert read_nifti(tmp_path / "p.nii")[0].data.dtype == np.float32


def test_read_equals_float64_oracle(tmp_path):
    for i in range(DTYPE_CASES):
        _, paths, _ = write_case(tmp_path, i)
        for path in paths:
            want, _ = float64_read(path)
            got = read_nifti(path)[0].data
            assert got.shape == want.shape and np.all(got == want), f"case {i}: {path.name}"


def float64_volumes(paths):
    return [Volume3D(float64_read(path)[0], (1.0, 1.0, 2.0)) for path in paths]


def test_probability_kernels_equal_float64_oracle(tmp_path):
    for i in range(DTYPE_CASES):
        kind, paths, _ = write_case(tmp_path, i)
        if kind not in ("prob", "zero"):
            continue
        vols = [read_nifti(path)[0] for path in paths]
        wide = float64_volumes(paths)
        for vol, ref in zip(vols, wide):
            for t in CUTS:
                mask = threshold_mask(vol, t)
                assert np.array_equal(mask.data, ref.data > t), f"case {i}, cut {t}"
                assert mean_region_confidence(vol, mask) == mean_region_confidence(ref, mask)
            everywhere = Mask3D(np.ones(vol.dims, dtype=bool))  # values of every magnitude
            assert mean_region_confidence(vol, everywhere) == mean_region_confidence(ref, everywhere)
            probabilities = 0.0 <= ref.data.min() and ref.data.max() <= 1.0  # a scaling can leave [0, 1]
            for formula in (certainty_symmetric, certainty_negative_only,
                            symmetric_uncertainty_raw, negative_only_uncertainty_raw):
                if probabilities:
                    assert same_bits(formula(vol).data, formula(ref).data), f"case {i}: {formula}"
                    continue
                for volume in (vol, ref):
                    with pytest.raises(ValueError, match=r"^p values must lie in \[0, 1\]$"):
                        formula(volume)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateVolumeWarning)
            seg, report = refine_segmentation(*vols)
            ref_seg, ref_report = refine_segmentation(*wide)
        for name in ("wt", "tc", "et"):
            assert np.array_equal(getattr(seg, name).data, getattr(ref_seg, name).data), f"case {i}"
        assert repr(report.flat_record()) == repr(ref_report.flat_record()), f"case {i}"
        assert report.summary_lines() == ref_report.summary_lines()


def test_fusion_equals_float64_oracle(tmp_path):
    axes_cycle = ((), (Axis.X,), (Axis.X, Axis.Y, Axis.Z))
    for n, i in enumerate(i for i in range(DTYPE_CASES) if dtype_case(i)[0] == "pair"):
        _, paths, _ = write_case(tmp_path, i)
        vols = [read_nifti(path)[0] for path in paths]
        wide = float64_volumes(paths)
        if any(v.data.min() < 0 or v.data.max() > (0.5 if k % 2 else 1.0) for k, v in enumerate(wide)):
            continue  # a scaling that takes p or q out of range
        axes = axes_cycle[n % 3]
        pairs = [PredictionPair(p=vols[k], q=vols[k + 1]) for k in (0, 2)]
        got = ensemble_with_flips(pairs, axes).data
        want = loop_fused_mean([(wide[k].data, wide[k + 1].data) for k in (0, 2)],
                               [a.value for a in axes])
        assert same_bits(got, want), f"case {i}"
        p, q = vols[0], vols[1]
        assert np.all(fuse_single(p.data, q.data) == np.where(wide[0].data > 0.5, 1.0 - wide[1].data, wide[1].data))
        assert same_bits(certainty_from_q(q).data, certainty_from_q(wide[1]).data), f"case {i}"
        gt = Mask3D(wide[2].data > 0.5, p.spacing)
        assert batch_loss(p, q, gt) == batch_loss(wide[0], wide[1], gt), f"case {i}"
        # the curve on a uint8 and a float32 certainty map, against float64
        seg = threshold_mask(p, 0.5)
        for cert in (Volume3D(np.rint(certainty_from_q(q).data).astype(np.uint8)),
                     Volume3D((100.0 * vols[2].data).astype(np.float32))):
            values = np.unique(cert.data.astype(np.float64))
            taus = tuple(sorted({0.0, 100.0, *values[:3].tolist(), *(values[:3] + 1e-9).tolist()}))
            curve = evaluate_uncertainty(seg, gt, cert, taus)
            got = (curve.dice_at, curve.ftp_at, curve.ftn_at,
                   curve.dice_auc, curve.ftp_auc, curve.ftn_auc)
            assert got == loop_uncertainty_curve(seg.data, gt.data, cert.data.astype(np.float64), taus)


def test_intensity_kernels_equal_float64_oracle(tmp_path):
    for i in range(DTYPE_CASES):
        kind, paths, _ = write_case(tmp_path, i)
        if kind != "intensity":
            continue
        for vol, ref in zip((read_nifti(path)[0] for path in paths), float64_volumes(paths)):
            if not ref.data.any():
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateVolumeWarning)
                got, want = standardize_nonzero(vol).data, standardize_nonzero(ref).data
            assert same_bits(got, want), f"case {i}"


def test_labels_equal_float64_oracle(tmp_path):
    for i in range(DTYPE_CASES):
        kind, paths, _ = write_case(tmp_path, i)
        if not kind.endswith("labels"):
            continue
        values, _ = float64_read(paths[0])
        if not np.all(values == np.round(values)):  # a fraction is no label, whatever the file dtype
            with pytest.raises(ValueError, match="outside declared set"):
                read_label_volume(paths[0])
            continue
        try:
            want = isin_masks(float64_label_read(paths[0]))
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                brats_labels_to_masks(read_label_volume(paths[0])[0])
            assert str(info.value) == str(exc), f"case {i}"
            continue
        vol, _ = read_label_volume(paths[0])
        seg = brats_labels_to_masks(vol)
        for got, expected in zip((seg.wt, seg.tc, seg.et), want):
            assert np.array_equal(got.data, expected), f"case {i}"
        # the label map the refined masks encode to, and back
        assert np.array_equal(brats_labels_to_masks(masks_to_brats_labels(seg)).wt.data, want[0])
        # fractions are outside the label set, not truncated into it
        fractional = vol.data + np.where(np.arange(vol.data.size).reshape(vol.dims) % 5 == 0, 0.25, 0.0)
        with pytest.raises(ValueError, match=r"unexpected label values \[.*\.25"):
            brats_labels_to_masks(Volume3D(fractional))


# --- survival forest ----------------------------------------------------------

FOREST_KINDS = ("continuous", "tied", "pure", "one record", "duplicate rows", "adjacent values")
FOREST_CASES = 60
FEATURES = ("age", "n_tumors", "n_cores")


def forest_case(i):
    """Case ``i``: (records, n_trees, max_depth, seed); the index cycles cohort kinds and depths 0-4.

    ``duplicate rows`` repeats feature rows under other classes, so some nodes
    hold two classes and no split; ``adjacent values`` puts ages one float
    apart, whose midpoints round onto a value and are not usable.
    """
    rng = np.random.default_rng([29, i])
    kind = FOREST_KINDS[i % len(FOREST_KINDS)]
    n = 1 if kind == "one record" else int(rng.integers(2, 60))
    ages = rng.uniform(20.0, 90.0, n)
    if kind == "tied":
        ages = rng.integers(40, 46, n).astype(float)
    elif kind == "adjacent values":
        ages = np.nextafter(50.0, 50.0 + rng.choice([-1, 0, 1], n)) + rng.integers(0, 2, n) * 10.0
    days = rng.uniform(100.0, 250.0, n) if kind == "pure" else rng.uniform(50.0, 900.0, n)
    rows = [(float(a), int(rng.integers(0, 4)), int(rng.integers(0, 3)), float(d)) for a, d in zip(ages, days)]
    if kind == "duplicate rows":
        rows += [row[:3] + (float(rng.uniform(50.0, 900.0)),) for row in rows[: n // 2 + 1]]
    records = [SurvivalRecord(f"c{j:03d}", *row) for j, row in enumerate(rows)]
    return records, int(rng.integers(1, 25)), i % 5, int(rng.integers(0, 1000))


def oracle_inputs(records):
    """The design matrix and class indices the former forest took (records sorted by case id)."""
    records = sorted(records, key=lambda r: r.case_id)
    x = np.asarray([[r.feature(name) for name in FEATURES] for r in records])
    bins = ClassBins()
    y = np.asarray([CLASS_ORDER.index(bins.classify(r.survival_days)) for r in records])
    return x, y


def walk(tree, depth=0):
    """(node, depth) of every node of an oracle tree."""
    yield tree, depth
    if not tree.is_leaf():
        yield from walk(tree.left, depth + 1)
        yield from walk(tree.right, depth + 1)


def test_forest_set_covers_the_edge_cases():
    seen = set()
    for i in range(FOREST_CASES):
        records, n_trees, max_depth, seed = forest_case(i)
        x, y = oracle_inputs(records)
        trees = tree_forest(x, y, n_trees, max_depth, seed)
        leaves = [(node, depth) for tree in trees for node, depth in walk(tree) if node.is_leaf()]
        flags = {
            "tied values": len(np.unique(x[:, 0])) < len(x),
            "one record": len(records) == 1,
            "duplicate rows": len(np.unique(x, axis=0)) < len(x),
            "pure node above max_depth": any(
                depth < max_depth and np.count_nonzero(node.counts) == 1 for node, depth in leaves
            ),
            "no usable split": any(
                depth < max_depth and np.count_nonzero(node.counts) > 1 for node, depth in leaves
            ),
            "a split": any(not tree.is_leaf() for tree in trees),
            "ages one float apart": any(np.nextafter(a, np.inf) in x[:, 0] for a in x[:, 0]),
        }
        seen.update(name for name, hit in flags.items() if hit)
        seen.add(("depth", max_depth))
        seen.add(("grown depth", max(tree.depth() for tree in trees)))
    assert seen >= set(flags) | {("depth", d) for d in range(5)} | {("grown depth", d) for d in range(5)}


def probes(records):
    """Each record, plus records at and beyond the extremes of its cohort's features."""
    yield from records
    ages = [r.age for r in records]
    for age in (min(ages), max(ages), min(ages) / 2, max(ages) * 2):
        yield SurvivalRecord("probe", age, 0, 7)


def large_cohort():
    """The acceptance suite's kind of cohort at the benchmark's size: three interleaved classes."""
    rng = np.random.default_rng(17)
    records = []
    for i in range(236):
        cls = i % 3
        days = (rng.uniform(60.0, 280.0), rng.uniform(310.0, 440.0), rng.uniform(470.0, 1400.0))[cls]
        tumors = int(rng.integers(2, 6)) if cls == 0 else 1
        records.append(SurvivalRecord(f"case-{i:03d}", round(float(rng.uniform(40, 80)), 1),
                                      tumors, int(rng.integers(1, tumors + 1)), round(float(days), 1)))
    return records


@pytest.mark.parametrize("case", [*range(FOREST_CASES), "large-3", "large-6"])
def test_forest_equals_tree_oracle(case):
    if isinstance(case, str):
        records, n_trees, max_depth, seed = large_cohort(), 300, int(case[-1]), 1
    else:
        records, n_trees, max_depth, seed = forest_case(case)
    model = fit_forest(records, n_trees=n_trees, max_depth=max_depth, seed=seed)
    trees = tree_forest(*oracle_inputs(records), n_trees, max_depth, seed)
    for got, want in zip((model.feature, model.threshold, model.counts), tree_arrays(trees)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    for rec in probes(records):
        want = tree_forest_proba(trees, np.asarray([rec.feature(name) for name in FEATURES]))
        assert np.array_equal(predict_forest_proba(model, rec), want), rec


def oracle_fused(model, trees, rec):
    """``predict_fused`` with the forest's probabilities taken from the oracle trees."""
    days = min(max(model.ols.predict(rec), 0.0), model.ols.cap_days)
    proba = tree_forest_proba(trees, np.asarray([rec.feature(name) for name in FEATURES]))
    rf = int(np.argmax(proba))
    if CLASS_ORDER[rf] is not ClassBins().classify(days) and proba[rf] >= 0.5:
        return SurvivalConfig().override_days[CLASS_ORDER[rf]]
    return days


def test_fused_prediction_and_cv_equal_tree_oracle():
    checked = 0
    for i in range(FOREST_CASES):
        records, n_trees, max_depth, seed = forest_case(i)
        if len(records) < 6:
            continue
        fit = {"n_trees": n_trees, "max_depth": max_depth}

        def fused(train):
            model = fit_fusion(train, seed=seed, **fit)
            return lambda rec: predict_fused(model, rec)

        def via_oracle(train):
            model = fit_fusion(train, seed=seed, **fit)
            trees = tree_forest(*oracle_inputs(train), n_trees, max_depth, seed)
            return lambda rec: oracle_fused(model, trees, rec)

        got, want = fused(records), via_oracle(records)
        assert [got(r) for r in probes(records)] == [want(r) for r in probes(records)], f"case {i}"
        assert cross_validate(records, fused, folds=3, seed=seed) == cross_validate(
            records, via_oracle, folds=3, seed=seed), f"case {i}"
        checked += 1
    assert checked > FOREST_CASES // 2


# --- slab fusion, in-place certainty, one-buffer writer --------------------------

SLAB_PLANES = 3  # FUSE_SLAB is patched to this many planes of each case's slab axis
FLIP_SUBSETS = [tuple(a for a in Axis if mask >> a.value & 1) for mask in range(8)]


def slab_axis(order, flips):
    """The slowest axis in memory that no view flips, or None when all three are flipped."""
    free = [a for a in ((0, 1, 2) if order == "C" else (2, 1, 0)) if a not in {f.value for f in flips}]
    return free[0] if free else None


def fusion_pairs(rng, dims, dtype, order, n_models):
    """(p, q) arrays with p exactly 0.5 and q -0.0, 0.0 and 0.5 on some voxels."""
    pairs = []
    for _ in range(n_models):
        p, q = rng.random(dims), rng.random(dims) * 0.5
        p[rng.random(dims) < 0.15] = 0.5
        q[rng.random(dims) < 0.1] = -0.0
        q[rng.random(dims) < 0.1] = 0.0
        q[rng.random(dims) < 0.05] = 0.5
        pairs.append(tuple(np.asarray(a.astype(dtype), order=order) for a in (p, q)))
    return pairs


def fusion_cases():
    """Every flip subset, dtype and order, with the slab axis 1, slab - 1, slab and slab + 1 planes long."""
    for n, (flips, dtype, order, length) in enumerate(
            (f, d, o, length) for f in FLIP_SUBSETS for d in (np.float32, np.float64) for o in "CF"
            for length in (1, SLAB_PLANES - 1, SLAB_PLANES, SLAB_PLANES + 1)):
        rng = np.random.default_rng([41, n])
        dims = [int(d) for d in rng.integers(2, 7, size=3)]
        axis = slab_axis(order, flips)
        dims[2 if axis is None else axis] = length
        yield flips, dtype, order, axis, fusion_pairs(rng, tuple(dims), dtype, order, 1 + n % 3)


def test_slab_fusion_equals_full_volume_oracle(monkeypatch):
    import uqseg.ensemble as ensemble

    calls = []
    fuse, default_slab = ensemble.fuse_single, ensemble.FUSE_SLAB
    monkeypatch.setattr(ensemble, "fuse_single", lambda p, q: calls.append(p.shape) or fuse(p, q))
    seen = set()
    for flips, dtype, order, axis, arrays in fusion_cases():
        dims = arrays[0][0].shape
        plane = int(np.prod(dims)) // dims[axis if axis is not None else 2]
        pairs = [PredictionPair(Volume3D(p), Volume3D(q)) for p, q in arrays]
        before = [a.copy() for pair in arrays for a in pair]
        want = full_volume_fused_mean(arrays, [a.value for a in flips])
        for slab in (SLAB_PLANES * plane, default_slab):
            monkeypatch.setattr(ensemble, "FUSE_SLAB", slab)
            calls.clear()
            got = ensemble_with_flips(pairs, flips).data
            assert same_bits(got, want), (flips, dtype, order, dims)
            assert got.flags.f_contiguous == want.flags.f_contiguous
            slabs = 1 if axis is None else -(-dims[axis] // max(1, slab // plane))
            assert len(calls) == len(pairs) * slabs, (flips, order, dims, slab)
            seen.add((len(flips), slabs > 1))
        assert all(same_bits(a, b) for a, b in zip((a for pair in arrays for a in pair), before))
    assert {(k, True) for k in range(3)} | {(3, False)} <= seen


def test_certainty_equals_full_volume_oracle():
    rng = np.random.default_rng(43)
    checked = 0
    for dtype in (np.float32, np.float64, np.uint8, np.int16):
        for order in "CF":
            for dims in ((1, 1, 1), (3, 4, 5), (17, 9, 6)):
                q = np.where(rng.random(dims) < 0.2, -0.0, rng.random(dims) * 0.5)
                q[rng.random(dims) < 0.2] = 0.5
                q = np.asarray(q.astype(dtype) if dtype in (np.float32, np.float64) else np.zeros(dims, dtype),
                               order=order)
                before = q.copy()
                got = certainty_from_q(Volume3D(q, (1.0, 2.0, 3.0))).data
                assert same_bits(got, full_volume_certainty(q)), (dtype, order, dims)
                assert got.flags.f_contiguous == full_volume_certainty(q).flags.f_contiguous
                assert same_bits(q, before) and not np.shares_memory(got, q)
                checked += 1
    assert checked == 24


WRITER_SOURCES = ("bool", "uint8", "int16", "float32", "float64")


def writer_values(rng, source, dims, fault):
    """Values of dtype ``source`` that each output dtype holds, or with one ``fault``:
    ``fraction``, ``range`` or ``both`` (a fraction in the last plane, out of range in the first)."""
    if source == "bool":
        return rng.random(dims) < 0.4
    values = rng.integers(0, 5, dims).astype(source)
    if source.startswith("float"):
        values[rng.random(dims) < 0.2] = -0.0
        if fault in ("fraction", "both"):
            values[-1, -1, -1] = 2.5
    if fault in ("range", "both"):
        values[0, 0, 0] = -1 if source == "int16" else 300
    return values


def test_writer_equals_concatenated_payload_oracle(tmp_path, inflater):
    """Through zlib every file equals the oracle's bytes. Through libdeflate a float32 .gz file
    may be libdeflate's member: it must inflate to the oracle's payload, read back and be
    written the same again."""
    from uqseg.nifti import _build_header

    rng = np.random.default_rng(47)
    seen = set()
    for n, (source, dims, fault) in enumerate(
            (s, d, f) for s in WRITER_SOURCES for d in ((1, 1, 1), (5, 3, 4), (64, 64, 70))
            for f in ("none", "fraction", "range", "both")):
        if (source in ("bool", "uint8") and fault != "none") or (source == "int16" and fault in ("fraction", "both")):
            continue
        values = writer_values(rng, source, dims, fault)
        vol = Mask3D(values) if source == "bool" else Volume3D(values, (0.5, 1.0, 2.0))
        for dtype in ("uint8", "int16", "float32"):
            header = _build_header(vol.dims, vol.spacing, {"uint8": 2, "int16": 4, "float32": 16}[dtype], None)
            for suffix in (".nii", ".nii.gz"):
                if dims[0] == 64 and suffix == ".nii.gz" and dtype == "float32":
                    continue  # level 9 over a float payload of this size is slow and adds no case
                path = tmp_path / f"w{n}-{dtype}{suffix}"
                try:
                    want = concatenated_nifti(vol.data, header, dtype, suffix == ".nii.gz")
                except ValueError as exc:
                    with pytest.raises(ValueError) as info:
                        write_nifti(vol, path, dtype=dtype)
                    assert str(info.value) == str(exc), (source, dims, fault, dtype)
                    assert not path.exists() and list(tmp_path.glob("*.part")) == []
                    seen.add((source, str(exc).split(" as ")[0].split(" for ")[0]))
                    continue
                write_nifti(vol, path, dtype=dtype)
                if inflater == "libdeflate" and dtype == "float32" and suffix == ".nii.gz":
                    blob = path.read_bytes()
                    assert_one_gzip_member(blob, concatenated_nifti(vol.data, header, dtype, False))
                    assert np.array_equal(read_nifti(path)[0].data, vol.data.astype(np.float32))
                    write_nifti(vol, path, dtype=dtype)
                    assert path.read_bytes() == blob, (source, dims, fault)
                else:
                    assert path.read_bytes() == want, (source, dims, fault, dtype, suffix)
                seen.add((source, dtype, suffix))
    assert {(s, d, x) for s in WRITER_SOURCES for d in ("uint8", "int16", "float32")
            for x in (".nii", ".nii.gz")} <= seen
    assert {(s, e) for s in ("float32", "float64") for e in ("cannot write non-integer values",
                                                            "values out of range")} <= seen
    assert ("int16", "values out of range") in seen


def test_writer_reports_the_fraction_before_the_range(tmp_path):
    values = np.zeros((64, 64, 70))
    values[0, 0, 0], values[-1, -1, -1] = 300.0, 0.5  # out of range in the first slab, the fraction in the last
    for dtype in ("uint8", "int16"):
        with pytest.raises(ValueError, match=f"^cannot write non-integer values as {dtype}$"):
            write_nifti(Volume3D(values), tmp_path / "v.nii", dtype=dtype)
    values[-1, -1, -1] = 70000.0
    with pytest.raises(ValueError, match="^values out of range for int16$"):
        write_nifti(Volume3D(values), tmp_path / "v.nii", dtype="int16")
    assert list(tmp_path.iterdir()) == []

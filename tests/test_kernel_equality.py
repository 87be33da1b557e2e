"""Seeded fuzz: the sort-based uncertainty curve and the bounding-box HD95
must equal their full-volume predecessors in tests/oracles.py exactly (==),
and component counting and small-component removal on scipy's own labels
must equal the former first-appearance relabel; the pooled gzip writer must
equal its serial oracle byte for byte, and the one-pass reader must return
or reject what the former reader did."""
import gzip
import os
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest

from oracles import (
    first_appearance_components,
    first_appearance_remove_small,
    full_volume_hd95,
    gzip_encode,
    gzip_read_bytes,
    loop_uncertainty_curve,
    serial_chunked_gzip,
)
from uqseg.metrics import hausdorff95
from uqseg.nifti import DEFLATE_CHUNK, _read_bytes, gzip_deflate, write_nifti
from uqseg.uncertainty import evaluate_uncertainty
from uqseg.volumes import (
    Connectivity,
    Mask3D,
    Volume3D,
    count_components,
    remove_small_components,
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
COMPONENT_KINDS = ("empty", "full", "single", "thin", "faces", "noise", "blob")
MIN_SIZES = (0, 1, 2, 5, 10)


def component_case(i):
    """Case ``i``: the index cycles mask kinds, then connectivities, then ``min_size``."""
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
    else:
        mask = random_mask(rng, dims, kind)
    connectivity = list(Connectivity)[(i // len(COMPONENT_KINDS)) % 3]
    min_size = MIN_SIZES[(i // (3 * len(COMPONENT_KINDS))) % len(MIN_SIZES)]
    return mask, connectivity, min_size


def test_component_set_covers_the_edge_cases():
    seen = set()
    for i in range(COMPONENT_CASES):
        mask, connectivity, min_size = component_case(i)
        filtered = first_appearance_remove_small(mask, min_size, connectivity.structure())
        extents = [np.flatnonzero(np.any(mask, axis=tuple({0, 1, 2} - {a}))) for a in range(3)]
        flags = {
            "empty": not mask.any(),
            "full": mask.size > 1 and mask.all(),
            "single voxel": mask.sum() == 1,
            "one voxel thick": mask.sum() > 1 and any(
                mask.shape[a] > 1 and e.size and e[0] == e[-1] for a, e in enumerate(extents)
            ),
            "touches every face": min(mask.shape) > 2 and not mask.all() and all(
                np.take(mask, end, axis=axis).any() for axis in range(3) for end in (0, -1)
            ),
            "several components": first_appearance_components(mask, connectivity.structure())[2] > 1,
            "filter drops some but not all": 0 < filtered.sum() < mask.sum(),
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


def reader_inputs():
    payload, strategy = codec_payload(3)
    other, _ = codec_payload(11)
    ours, theirs = gzip_deflate(payload, strategy), gzip_encode(payload)
    accepted = {
        "writer": ours,
        "gzip.compress": theirs,
        "empty": gzip_encode(b""),
        "multi-member": ours + gzip_encode(other),
        "multi-member-empty-first": gzip_encode(b"") + theirs,
        "nul-padded": ours + b"\x00" * 7,
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
        "bad-second-member": ours + gzip_encode(other)[:-8] + b"\x00" * 8,
        "bad-method": ours[:2] + b"\x07" + ours[3:],
    }
    return accepted, corrupt


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


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
def test_gzip_bytes_do_not_depend_on_cpu_count(tmp_path):
    write_nifti(multi_chunk_volume(), tmp_path / "in.nii")
    write_nifti(multi_chunk_volume(), tmp_path / "here.nii.gz")
    code = (
        "import os, sys\n"
        "os.sched_setaffinity(os.getpid(), {min(os.sched_getaffinity(0))})\n"
        "assert len(os.sched_getaffinity(0)) == 1\n"
        "from uqseg.nifti import read_nifti, write_nifti\n"
        "write_nifti(read_nifti(sys.argv[1])[0], sys.argv[2])\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code, str(tmp_path / "in.nii"),
                    str(tmp_path / "pinned.nii.gz")], env=env, check=True, timeout=120)
    assert (tmp_path / "pinned.nii.gz").read_bytes() == (tmp_path / "here.nii.gz").read_bytes()


@pytest.mark.parametrize("cpus", [None, 3])
def test_gzip_bytes_without_affinity_call(tmp_path, monkeypatch, cpus):
    write_nifti(multi_chunk_volume(), tmp_path / "affinity.nii.gz")
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    write_nifti(multi_chunk_volume(), tmp_path / "count.nii.gz")
    assert (tmp_path / "count.nii.gz").read_bytes() == (tmp_path / "affinity.nii.gz").read_bytes()

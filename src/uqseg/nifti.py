"""Minimal NIfTI-1 reader/writer for the pipeline's needs.

Supports single-file little-endian NIfTI-1 (.nii, .nii.gz) with uint8, int16
or float32 data, read in that dtype. The 348-byte header is kept as an opaque
blob; only dims, datatype, pixdim, vox_offset and the scaling pair are read.
Header extensions are skipped on read (vox_offset is honored), never written.
Orientation fields pass through untouched; the pipeline is voxel-space only.
"""
from __future__ import annotations

import functools
import gzip
import io
import os
import struct
import sys
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import write_atomic
from .volumes import Mask3D, Volume3D, labels_outside

HEADER_SIZE = 348
DATA_OFFSET = 352  # header + 4-byte empty extension flag

DT_UINT8 = 2
DT_INT16 = 4
DT_FLOAT32 = 16

_DTYPES = {
    DT_UINT8: (np.dtype("<u1"), 8),
    DT_INT16: (np.dtype("<i2"), 16),
    DT_FLOAT32: (np.dtype("<f4"), 32),
}
_CODE_FOR = {"uint8": DT_UINT8, "int16": DT_INT16, "float32": DT_FLOAT32}

# The header zlib writes for wbits=31 at level 9: no flags, mtime 0, XFL 2, OS 3.
GZIP_HEADER = b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x02\x03"
DEFLATE_CHUNK = 256 * 1024
DEFLATE_WINDOW = 32 * 1024
# No deflate stream inflates to more than 1032 times its size (a 258-byte match per 2 bits).
DEFLATE_MAX_RATIO = 1032
LIBDEFLATE_LEVEL = 1  # for float32 payloads with few repeats; zlib level 9 writes every other .gz


@dataclass
class NiftiHeaderView:
    """Interpreted header fields plus the raw 348-byte blob for pass-through."""

    dims: tuple[int, int, int]
    datatype: int
    spacing: tuple[float, float, float]
    scl_slope: float
    scl_inter: float
    vox_offset: int
    raw: bytes

    @property
    def payload_end(self) -> int:
        """The offset one past the last voxel byte the header declares."""
        return self.vox_offset + int(np.prod(self.dims)) * _DTYPES[self.datatype][0].itemsize


@functools.cache
def _libdeflate():
    """libdeflate's gzip codec as ``(gunzip, gzip_member)``, or None where the system lacks it.

    Looked up on the first gzip read or write, not at import: ``find_library`` starts ``ldconfig``.
    ``gunzip(blob, size)`` inflates the one gzip member ``blob`` into a fresh read-only buffer of
    ``size`` bytes, or returns None unless the member fills it exactly and ends the blob.
    ``gzip_member(payload)`` deflates a uint8 array at LIBDEFLATE_LEVEL into one gzip member
    (mtime 0) in a buffer of libdeflate's bound, or returns None. Each call has its own
    (de)compressor, and ctypes releases the GIL, so threads may call both at once.
    """
    import ctypes
    import ctypes.util

    name = ctypes.util.find_library("deflate")
    if name is None:
        return None
    try:
        lib = ctypes.CDLL(name)
        alloc, free = lib.libdeflate_alloc_decompressor, lib.libdeflate_free_decompressor
        inflate = lib.libdeflate_gzip_decompress_ex
        alloc_c, free_c = lib.libdeflate_alloc_compressor, lib.libdeflate_free_compressor
        compress, bound = lib.libdeflate_gzip_compress, lib.libdeflate_gzip_compress_bound
    except (OSError, AttributeError):  # unloadable, or older than the _ex entry point
        return None
    alloc.restype, alloc.argtypes = ctypes.c_void_p, []
    alloc_c.restype, alloc_c.argtypes = ctypes.c_void_p, [ctypes.c_int]
    for release in (free, free_c):
        release.restype, release.argtypes = None, [ctypes.c_void_p]
    size_p = ctypes.POINTER(ctypes.c_size_t)
    inflate.restype = ctypes.c_int  # 0 is LIBDEFLATE_SUCCESS
    inflate.argtypes = [ctypes.c_void_p, ctypes.c_char_p, ctypes.c_size_t,
                        ctypes.c_void_p, ctypes.c_size_t, size_p, size_p]
    bound.restype, bound.argtypes = ctypes.c_size_t, [ctypes.c_void_p, ctypes.c_size_t]
    compress.restype = ctypes.c_size_t  # 0 when the member does not fit
    compress.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t, ctypes.c_void_p, ctypes.c_size_t]

    def gunzip(blob: bytes, size: int) -> memoryview | None:
        out = np.empty(size, np.uint8)
        read, made = ctypes.c_size_t(), ctypes.c_size_t()
        decompressor = alloc()
        if not decompressor:
            return None
        try:
            status = inflate(decompressor, blob, len(blob), out.ctypes.data, size,
                             ctypes.byref(read), ctypes.byref(made))
        finally:
            free(decompressor)
        if status or read.value != len(blob) or made.value != size:
            return None
        out.flags.writeable = False
        return out.data

    def gzip_member(payload: np.ndarray) -> np.ndarray | None:
        payload = np.ascontiguousarray(payload, np.uint8)  # the pointer below needs one uint8 block
        compressor = alloc_c(LIBDEFLATE_LEVEL)
        if not compressor:
            return None
        try:
            out = np.empty(bound(compressor, payload.size), np.uint8)
            made = compress(compressor, payload.ctypes.data, payload.size, out.ctypes.data, out.size)
        finally:
            free_c(compressor)
        return out[:made] if made else None

    return gunzip, gzip_member


def _read_bytes(path: Path) -> bytes | memoryview:
    """The file's bytes, gunzipped when they start with the gzip magic.

    A gzip stream that inflates past the end of the volume its NIfTI header declares is refused
    as soon as it does. When the first gzip member holds the whole header and the system has
    libdeflate, one member that ends the file and inflates to its stated size, within the
    declared volume, is inflated by libdeflate into one read-only buffer. Any other complete
    member is inflated in one zlib pass, which checks its CRC and length; anything else goes
    through ``gzip.GzipFile``, as ``gzip.decompress`` reads it. Errors come from the zlib paths.
    """
    blob = path.read_bytes()
    if blob[:2] != b"\x1f\x8b":
        return blob

    def cap_of(head):  # below sys.maxsize, the largest size zlib takes
        end = _parse_header(head, path).payload_end if len(head) == HEADER_SIZE else sys.maxsize
        return min(end, sys.maxsize - 1)

    def within(size, cap):
        if size > cap:
            raise ValueError(f"{path}: gzip stream inflates past the {cap} bytes its header declares")
        return size

    inflater = zlib.decompressobj(wbits=31)
    try:  # the header from a throwaway inflater, so the volume is inflated into one buffer
        head = zlib.decompressobj(wbits=31).decompress(blob, HEADER_SIZE)
        cap = cap_of(head)
        if len(head) == HEADER_SIZE and (codec := _libdeflate()) is not None:
            (stated,) = struct.unpack_from("<I", blob, len(blob) - 4)  # ISIZE, if one member ends the file
            if stated <= min(cap, DEFLATE_MAX_RATIO * len(blob)) and (data := codec[0](blob, stated)) is not None:
                return data
        data = inflater.decompress(blob, cap + 1)
        within(len(data), cap)
        if inflater.eof and not inflater.unused_data:
            return data
    except zlib.error:
        pass
    try:
        with gzip.GzipFile(fileobj=io.BytesIO(blob)) as stream:
            parts = [stream.read(HEADER_SIZE)]
            cap, size = cap_of(parts[0]), len(parts[0])
            while part := stream.read(DEFLATE_CHUNK):  # a read allocates the size it is given
                size = within(size + len(part), cap)
                parts.append(part)
            return b"".join(parts)
    except (EOFError, zlib.error, gzip.BadGzipFile):
        pass  # gzip.decompress stops at the same point and words the error as it always did
    try:
        return gzip.decompress(blob)
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise ValueError(f"{path}: corrupt gzip stream: {exc}") from exc


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def gzip_deflate(payload, strategy: int) -> bytes:
    """One gzip member (level 9, zlib ``strategy``, mtime 0) holding the bytes-like ``payload``.

    The payload is cut at fixed DEFLATE_CHUNK boundaries and the chunks are
    deflated on a thread pool (zlib releases the GIL). Each chunk after the
    first is primed with the DEFLATE_WINDOW bytes before it, and each but the
    last ends on a byte boundary with a sync flush, so the raw deflate
    streams join into one. The boundaries are fixed, so the bytes depend
    neither on the CPU count nor on the machine.
    """
    view = memoryview(payload)
    starts = range(0, max(len(view), 1), DEFLATE_CHUNK)

    def deflate(start: int) -> bytes:
        primer = {"zdict": view[start - DEFLATE_WINDOW : start]} if start else {}
        deflater = zlib.compressobj(9, zlib.DEFLATED, -zlib.MAX_WBITS, 8, strategy, **primer)
        stop = start + DEFLATE_CHUNK
        end = zlib.Z_FINISH if stop >= len(view) else zlib.Z_SYNC_FLUSH
        return deflater.compress(view[start:stop]) + deflater.flush(end)

    if len(starts) == 1:
        parts = [deflate(0)]
    else:
        # a pool per call: a module-level executor would hang in a forked child
        with ThreadPoolExecutor(min(_usable_cpus(), len(starts))) as pool:
            parts = list(pool.map(deflate, starts))
    trailer = struct.pack("<2I", zlib.crc32(view), len(view) & 0xFFFFFFFF)
    return b"".join([GZIP_HEADER, *parts, trailer])


def _parse_header(blob: bytes, path) -> NiftiHeaderView:
    if len(blob) < HEADER_SIZE:
        raise ValueError(f"{path}: truncated file, header shorter than {HEADER_SIZE} bytes")
    raw = bytes(blob[:HEADER_SIZE])
    (sizeof_hdr,) = struct.unpack_from("<i", raw, 0)
    if sizeof_hdr != HEADER_SIZE:
        if struct.unpack_from(">i", raw, 0)[0] == HEADER_SIZE:
            raise ValueError(f"{path}: big-endian NIfTI is not supported")
        raise ValueError(f"{path}: not a NIfTI-1 file (sizeof_hdr={sizeof_hdr})")
    magic = raw[344:348]
    if magic == b"ni1\x00":
        raise ValueError(f"{path}: two-file (.hdr/.img) NIfTI is not supported")
    if magic != b"n+1\x00":
        raise ValueError(f"{path}: not a single-file NIfTI-1 (magic={magic!r})")
    dim = struct.unpack_from("<8h", raw, 40)
    if not 3 <= dim[0] <= 7 or any(d > 1 for d in dim[4 : dim[0] + 1]):
        raise ValueError(f"{path}: only 3D single-frame volumes are supported (dim={dim})")
    dims = (int(dim[1]), int(dim[2]), int(dim[3]))
    if min(dims) < 1:
        raise ValueError(f"{path}: non-positive dimensions {dims}")
    (datatype,) = struct.unpack_from("<h", raw, 70)
    if datatype not in _DTYPES:
        raise ValueError(
            f"{path}: unsupported datatype code {datatype}; "
            f"supported: uint8 (2), int16 (4), float32 (16)"
        )
    pixdim = struct.unpack_from("<8f", raw, 76)
    spacing = tuple(float(p) if p > 0 else 1.0 for p in pixdim[1:4])
    (vox_offset,) = struct.unpack_from("<f", raw, 108)
    if not np.isfinite(vox_offset):
        raise ValueError(f"{path}: non-finite vox_offset {vox_offset}")
    slope, inter = struct.unpack_from("<2f", raw, 112)
    return NiftiHeaderView(
        dims=dims,
        datatype=datatype,
        spacing=spacing,
        scl_slope=float(slope),
        scl_inter=float(inter),
        vox_offset=int(vox_offset) if vox_offset >= HEADER_SIZE else DATA_OFFSET,
        raw=raw,
    )


def read_nifti(path, expect_dims: tuple[int, int, int] | None = None) -> tuple[Volume3D, NiftiHeaderView]:
    """Read a volume in the file's dtype (maybe a read-only view of its bytes).

    A scaling pair other than (1, 0) gives float64; slope 0 or NaN means none.
    """
    file = Path(path)
    blob = _read_bytes(file)
    view = _parse_header(blob, file)
    dtype, _ = _DTYPES[view.datatype]
    count = view.dims[0] * view.dims[1] * view.dims[2]
    end = view.payload_end
    if len(blob) < end:
        raise ValueError(f"{file}: truncated file, expected {end} bytes, got {len(blob)}")
    if expect_dims is not None and view.dims != tuple(expect_dims):
        raise ValueError(f"{path}: dims {view.dims} do not match expected {tuple(expect_dims)}")
    data = np.frombuffer(blob, dtype, count, view.vox_offset).reshape(view.dims, order="F")
    slope, inter = view.scl_slope, view.scl_inter
    if slope != 0.0 and not np.isnan(slope) and (slope, inter) != (1.0, 0.0):
        if not np.isfinite([slope, inter]).all():
            raise ValueError(f"{file}: volume contains non-finite values (scaling pair {slope}, {inter})")
        data = data.astype(np.float64) * slope + inter
    try:
        return Volume3D(data, view.spacing), view
    except ValueError as exc:  # non-finite values
        raise ValueError(f"{file}: {exc}") from exc


def read_label_volume(
    path,
    allowed_labels=(0, 1, 2, 4),
    expect_dims: tuple[int, int, int] | None = None,
) -> tuple[Volume3D, NiftiHeaderView]:
    """Read a label map in its file's dtype; every value must equal a declared label exactly."""
    vol, view = read_nifti(path, expect_dims)
    extra = labels_outside(vol.data, [int(v) for v in allowed_labels])
    if extra:
        raise ValueError(
            f"{path}: label values {extra} outside declared set {sorted(allowed_labels)}"
        )
    return vol, view


def _build_header(
    dims: tuple[int, int, int],
    spacing: tuple[float, float, float],
    datatype: int,
    template: NiftiHeaderView | None,
) -> bytes:
    if template is not None:
        header = bytearray(template.raw)
    else:
        header = bytearray(HEADER_SIZE)
        struct.pack_into("<i", header, 0, HEADER_SIZE)
        header[38] = ord("r")  # regular
        struct.pack_into("<f", header, 76, 1.0)  # qfac
    struct.pack_into("<8h", header, 40, 3, dims[0], dims[1], dims[2], 1, 1, 1, 1)
    struct.pack_into("<h", header, 70, datatype)
    struct.pack_into("<h", header, 72, _DTYPES[datatype][1])
    struct.pack_into("<3f", header, 80, *spacing)
    struct.pack_into("<f", header, 108, float(DATA_OFFSET))
    struct.pack_into("<2f", header, 112, 1.0, 0.0)  # data written unscaled
    header[344:348] = b"n+1\x00"
    return bytes(header)


def _cast_back_equal(voxels: np.ndarray, values: np.ndarray) -> bool:
    """Whether ``voxels == values`` everywhere, compared DEFLATE_CHUNK voxels of whole z-planes at a time."""
    step = max(1, DEFLATE_CHUNK * voxels.shape[2] // voxels.size)
    return all(np.array_equal(voxels[..., z : z + step], values[..., z : z + step])
               for z in range(0, voxels.shape[2], step))


def _few_repeats(voxels: np.ndarray) -> bool:
    """Whether under one in 16 of the uint8 array's 8-byte words repeat a word of their DEFLATE_CHUNK.

    Runs, quantized values and mirrored rows repeat; noise, where level 9 gains least, does not."""
    words, step = voxels[: voxels.size // 8 * 8].view("<u8"), DEFLATE_CHUNK // 8
    chunks = (np.sort(words[start : start + step]) for start in range(0, words.size, step))
    return 16 * sum(np.count_nonzero(chunk[1:] == chunk[:-1]) for chunk in chunks) < words.size


def write_nifti(
    vol,
    path,
    header_template: NiftiHeaderView | None = None,
    dtype: str | None = None,
) -> None:
    """Write a volume or mask; masks and label maps go out as uint8.

    float32 round-trips losslessly. Integer dtypes require integral values in
    range. A header template must match the volume's dims; its uninterpreted
    fields are carried over verbatim. A ``.gz`` path gets one gzip member: a
    noise-dominated float32 payload (``_few_repeats``) goes to libdeflate at
    LIBDEFLATE_LEVEL when the system has it; every other payload, and any
    libdeflate failure, to ``gzip_deflate`` at level 9: run-length deflate for
    integer maps, the default strategy for float32. The file appears whole or
    not at all: it is written beside the target and renamed over it.
    """
    path = Path(path)
    if header_template is not None and header_template.dims != vol.dims:
        raise ValueError(
            f"header template dims {header_template.dims} incompatible with volume {vol.dims}"
        )
    if dtype is None:
        dtype = "uint8" if isinstance(vol, Mask3D) else "float32"
    if dtype not in _CODE_FOR:
        raise ValueError(f"unsupported output dtype {dtype!r}; choose from {sorted(_CODE_FOR)}")
    code = _CODE_FOR[dtype]
    np_dtype = _DTYPES[code][0]

    payload = np.empty(DATA_OFFSET + vol.data.size * np_dtype.itemsize, np.uint8)
    payload.data[:HEADER_SIZE] = _build_header(vol.dims, vol.spacing, code, header_template)
    payload[HEADER_SIZE:DATA_OFFSET] = 0
    voxels = payload[DATA_OFFSET:].view(np_dtype).reshape(vol.dims, order="F")
    values = vol.data
    with np.errstate(invalid="ignore"):  # a value the cast cannot hold is caught below
        np.copyto(voxels, values, casting="unsafe")
    # a fractional or out-of-range value does not survive the cast unchanged
    lossy = code != DT_FLOAT32 and not np.can_cast(values.dtype, np_dtype)
    if lossy and not _cast_back_equal(voxels, values):
        info = np.iinfo(np_dtype)
        if values.dtype.kind == "f" and not np.all(values == np.round(values)):
            raise ValueError(f"cannot write non-integer values as {dtype}")
        if values.min() < info.min or values.max() > info.max:
            raise ValueError(f"values out of range for {dtype}")
    if path.suffix == ".gz":
        codec = _libdeflate() if code == DT_FLOAT32 else None
        fast = codec[1](payload) if codec and _few_repeats(payload[DATA_OFFSET:]) else None
        payload = fast if fast is not None else gzip_deflate(
            payload, zlib.Z_DEFAULT_STRATEGY if code == DT_FLOAT32 else zlib.Z_RLE)
    write_atomic(path, payload)

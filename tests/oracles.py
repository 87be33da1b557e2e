"""Independent brute-force implementations used only as test oracles.

Nothing here may import from the library's computational paths: components
are labeled by explicit flood fill, surface distances by all-pairs search,
and losses by scalar math-module arithmetic. The superseded full-volume
kernels, the first-appearance component relabel, the ``find_objects`` box and
full-grid gather, the one-call gzip codec, the float64 read, label and
fusion paths, the full-volume fusion, certainty and concatenated-payload
writer, the recursive survival forest and the version-2 model file's tree rows
kept below are the references their rewrites must equal.
"""
import gzip
import math
import struct
import zlib
from itertools import chain
from pathlib import Path

import numpy as np
from scipy import ndimage

FACE6 = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
EDGE18 = [
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) != (0, 0, 0) and abs(dx) + abs(dy) + abs(dz) <= 2
]
CORNER26 = [
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) != (0, 0, 0)
]


def flood_fill_labels(mask, offsets):
    """Label components by BFS, scanning voxels in x-fastest order."""
    nx, ny, nz = mask.shape
    labels = np.zeros(mask.shape, dtype=np.int64)
    next_label = 0
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                if not mask[x, y, z] or labels[x, y, z]:
                    continue
                next_label += 1
                labels[x, y, z] = next_label
                stack = [(x, y, z)]
                while stack:
                    cx, cy, cz = stack.pop()
                    for dx, dy, dz in offsets:
                        px, py, pz = cx + dx, cy + dy, cz + dz
                        if (
                            0 <= px < nx
                            and 0 <= py < ny
                            and 0 <= pz < nz
                            and mask[px, py, pz]
                            and not labels[px, py, pz]
                        ):
                            labels[px, py, pz] = next_label
                            stack.append((px, py, pz))
    sizes = np.bincount(labels.ravel(), minlength=next_label + 1)[1:]
    return labels, sizes


def first_appearance_components(mask, structure):
    """The former ``volumes.connected_components``: scipy's labelling renumbered
    so that label 1 is the component seen first in the x-fastest scan.

    Returns (labels, sizes, count).
    """
    raw, n = ndimage.label(mask, structure=structure)
    if n == 0:
        return raw.astype(np.int64), np.zeros(0, dtype=np.int64), 0
    flat = raw.ravel(order="F")
    first_seen = np.full(n + 1, flat.size, dtype=np.int64)
    np.minimum.at(first_seen, flat, np.arange(flat.size, dtype=np.int64))
    by_first = np.argsort(first_seen[1:], kind="stable") + 1
    remap = np.zeros(n + 1, dtype=np.int64)
    remap[by_first] = np.arange(1, n + 1)
    labels = remap[raw]
    sizes = np.bincount(labels.ravel(), minlength=n + 1)[1:].astype(np.int64)
    return labels, sizes, n


def first_appearance_remove_small(mask, min_size, structure):
    """The former ``volumes.remove_small_components``, built on the relabel above."""
    if min_size <= 1:
        return mask.copy()
    labels, sizes, n = first_appearance_components(mask, structure)
    if n == 0:
        return mask.copy()
    keep = np.concatenate(([False], sizes >= min_size))
    return keep[labels]


def find_objects_box(mask):
    """The former HD95 box: scipy's bounding slices of the foreground, or None."""
    boxes = ndimage.find_objects(mask.view(np.uint8))
    return boxes[0] if boxes else None


def full_grid_float64(data, where):
    """The former ``Volume3D.float64(where)``: a boolean gather over the whole grid."""
    return data[where].astype(np.float64)


def brute_surface(mask):
    """Foreground voxels with a background (or out-of-bounds) face-neighbour."""
    nx, ny, nz = mask.shape
    out = np.zeros_like(mask, dtype=bool)
    for x, y, z in zip(*np.nonzero(mask)):
        for dx, dy, dz in FACE6:
            px, py, pz = x + dx, y + dy, z + dz
            if not (0 <= px < nx and 0 <= py < ny and 0 <= pz < nz) or not mask[px, py, pz]:
                out[x, y, z] = True
                break
    return out


def brute_hd95(a, b, spacing=(1.0, 1.0, 1.0)):
    """All-pairs 95th-percentile symmetric surface distance."""
    sa = np.argwhere(brute_surface(a)).astype(float) * np.asarray(spacing)
    sb = np.argwhere(brute_surface(b)).astype(float) * np.asarray(spacing)
    dists = np.sqrt(((sa[:, None, :] - sb[None, :, :]) ** 2).sum(axis=-1))
    p_ab = np.percentile(dists.min(axis=1), 95)
    p_ba = np.percentile(dists.min(axis=0), 95)
    return max(p_ab, p_ba)


def full_volume_hd95(a, b, spacing=(1.0, 1.0, 1.0)):
    """HD95 with surfaces and distance transforms over the whole array.

    Both masks must be non-empty.
    """
    face = ndimage.generate_binary_structure(3, 1)
    surf_a = a & ~ndimage.binary_erosion(a, structure=face, border_value=0)
    surf_b = b & ~ndimage.binary_erosion(b, structure=face, border_value=0)
    dist_to_b = ndimage.distance_transform_edt(~surf_b, sampling=spacing)
    dist_to_a = ndimage.distance_transform_edt(~surf_a, sampling=spacing)
    p_ab = np.percentile(dist_to_b[surf_a], 95)
    p_ba = np.percentile(dist_to_a[surf_b], 95)
    return float(max(p_ab, p_ba))


def loop_uncertainty_curve(s, g, c, taus):
    """Filtered-Dice curve by full-volume masking at every threshold.

    Returns (dice_at, ftp_at, ftn_at, dice_auc, ftp_auc, ftn_auc).
    """
    tp = s & g
    tn = ~s & ~g
    tp_total = int(tp.sum())
    tn_total = int(tn.sum())
    dice_at, ftp_at, ftn_at = [], [], []
    for tau in taus:
        kept = c >= tau
        inter = int((tp & kept).sum())
        denom = int((s & kept).sum()) + int((g & kept).sum())
        dice_at.append(1.0 if denom == 0 else 2.0 * inter / denom)
        ftp_at.append(0.0 if tp_total == 0 else int((tp & ~kept).sum()) / tp_total)
        ftn_at.append(0.0 if tn_total == 0 else int((tn & ~kept).sum()) / tn_total)
    grid = np.asarray(taus, dtype=float) / 100.0
    return (
        tuple(dice_at),
        tuple(ftp_at),
        tuple(ftn_at),
        float(np.trapezoid(dice_at, grid)),
        float(np.trapezoid(ftp_at, grid)),
        float(np.trapezoid(ftn_at, grid)),
    )


def loop_fused_mean(pairs, axes=()):
    """The former fusion: the voxelwise mean of P(label = 1) over float64 (p, q)
    array pairs, each fused pair also added as a flipped copy per axis index."""
    acc = np.zeros_like(pairs[0][0], dtype=np.float64)
    for p, q in pairs:
        fused = np.where(p > 0.5, 1.0 - q, q)
        acc += fused
        for axis in axes:
            acc += np.flip(fused, axis=axis).copy()
    return acc / (len(pairs) * (1 + len(axes)))


def full_volume_fused_mean(pairs, axes=()):
    """The former ``ensemble_with_flips`` body on (p, q) arrays in their own dtype:
    a zeroed float64 accumulator, each pair fused into a full-size copy and added,
    then its flips, then one division by the number of views."""
    axes = sorted(set(axes))
    acc = np.zeros_like(pairs[0][0], dtype=np.float64)
    for p, q in pairs:
        fused = np.array(q, dtype=np.float64)
        np.subtract(1.0, fused, out=fused, where=np.asarray(p) > np.float64(0.5))
        acc += fused
        for axis in axes:
            acc += np.flip(fused, axis=axis)
    return acc / (len(pairs) * (1 + len(axes)))


def full_volume_certainty(q):
    """The former ``certainty_from_q`` expression on an array in its own dtype."""
    return 100.0 * (1.0 - 2.0 * q.astype(np.float64, copy=False))


def concatenated_nifti(values, header, dtype, gz):
    """The former ``write_nifti`` file bytes after the header was built: the
    integer checks, then ``astype``, ``tobytes`` and one concatenation, deflated
    by the serial chunked writer for a ``.gz`` path."""
    np_dtype = np.dtype(dtype).newbyteorder("<")
    if np_dtype.kind != "f" and not np.can_cast(values.dtype, np_dtype):
        info = np.iinfo(np_dtype)
        if values.dtype.kind == "f" and not np.all(values == np.round(values)):
            raise ValueError(f"cannot write non-integer values as {dtype}")
        if values.min() < info.min or values.max() > info.max:
            raise ValueError(f"values out of range for {dtype}")
    payload = header + b"\x00\x00\x00\x00" + values.astype(np_dtype, copy=False).tobytes(order="F")
    if not gz:
        return payload
    return serial_chunked_gzip(payload, zlib.Z_DEFAULT_STRATEGY if np_dtype.kind == "f" else zlib.Z_RLE)


def brute_dice(a, b):
    na, nb = int(a.sum()), int(b.sum())
    if na + nb == 0:
        return 1.0
    return 2.0 * int((a & b).sum()) / (na + nb)


# --- scalar loss oracle ---------------------------------------------------


def oracle_focal(p, t, gamma):
    return t * (1 - p) ** gamma * (-math.log(p)) + (1 - t) * p**gamma * (-math.log(1 - p))


def oracle_bce(pred, target):
    return -target * math.log(pred) - (1 - target) * math.log(1 - pred)


def oracle_kl(w, p, full=False):
    value = w * math.log(w) - w * math.log(p)
    if full:
        value += (1 - w) * (math.log(1 - w) - math.log(1 - p))
    return value


def oracle_focal_kl(w, p, full=False):
    return (p - w) ** 2 * oracle_kl(w, p, full)


def oracle_flip_target(q, x):
    return (1 - x) * q + x * (1 - q)


def oracle_disagreement(p, x):
    return 1.0 if (p > 0.5) != (x > 0.5) else 0.0


def oracle_label_flip(p, q, x, gamma):
    w = oracle_flip_target(q, x)
    return oracle_focal(p, w, gamma) + oracle_bce(q, oracle_disagreement(p, x))


def oracle_combined(p, q, x, gamma, lam, full=False):
    w = oracle_flip_target(q, x)
    z = oracle_disagreement(p, x)
    return (
        lam * oracle_focal(p, x, gamma)
        + (1 - lam) * oracle_focal_kl(w, p, full)
        + (1 - lam) * oracle_bce(q, z)
    )


# --- gzip codec -------------------------------------------------------------


def gzip_encode(payload):
    """The former .nii.gz writer: one ``gzip.compress`` at level 9, mtime 0."""
    return gzip.compress(payload, mtime=0)


def gzip_read_bytes(path):
    """The former .nii.gz reader: ``gzip.decompress`` of the whole file."""
    blob = Path(path).read_bytes()
    if blob[:2] == b"\x1f\x8b":
        try:
            blob = gzip.decompress(blob)
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise ValueError(f"{path}: corrupt gzip stream: {exc}") from exc
    return blob


def serial_chunked_gzip(payload, strategy, chunk=256 * 1024, window=32 * 1024):
    """One gzip member built from level-9 raw deflate chunks, one after another.

    Chunk k covers bytes [k * chunk, (k + 1) * chunk), is primed with the
    ``window`` bytes before it and ends with a sync flush, except the last,
    which finishes the stream.
    """
    bounds = list(range(0, len(payload), chunk)) or [0]
    out = [b"\x1f\x8b\x08\x00" + struct.pack("<I", 0) + b"\x02\x03"]
    for start in bounds:
        if start:
            deflater = zlib.compressobj(9, zlib.DEFLATED, -15, 8, strategy,
                                        zdict=payload[start - window:start])
        else:
            deflater = zlib.compressobj(9, zlib.DEFLATED, -15, 8, strategy)
        out.append(deflater.compress(payload[start:start + chunk]))
        last = start == bounds[-1]
        out.append(deflater.flush(zlib.Z_FINISH if last else zlib.Z_SYNC_FLUSH))
    out.append(struct.pack("<II", zlib.crc32(payload), len(payload) & 0xFFFFFFFF))
    return b"".join(out)


# --- float64 volume paths ---------------------------------------------------

NIFTI_DTYPES = {2: "<u1", 4: "<i2", 16: "<f4"}


def float64_read(path):
    """The former ``read_nifti`` values of a valid file: the payload widened to
    float64, then ``* scl_slope + scl_inter`` unless the slope is 0 or NaN.

    Returns (values, datatype code).
    """
    blob = gzip_read_bytes(path)
    dims = struct.unpack_from("<3h", blob, 42)
    (datatype,) = struct.unpack_from("<h", blob, 70)
    (offset,) = struct.unpack_from("<f", blob, 108)
    slope, inter = struct.unpack_from("<2f", blob, 112)
    count = dims[0] * dims[1] * dims[2]
    flat = np.frombuffer(blob, NIFTI_DTYPES[datatype], count, int(offset) if offset >= 348 else 352)
    values = flat.reshape(dims, order="F").astype(np.float64)
    if slope != 0.0 and not math.isnan(slope):
        values = values * slope + inter
    return values, datatype


def float64_label_read(path, allowed=(0, 1, 2, 4)):
    """The former ``read_label_volume`` checks on float64 values; returns the values."""
    values, datatype = float64_read(path)
    if datatype == 16 and not np.all(values == np.round(values)):
        raise ValueError(f"{path}: label map contains non-integer values")
    extra = set(np.unique(values).astype(int).tolist()) - set(int(v) for v in allowed)
    if extra:
        raise ValueError(f"{path}: label values {sorted(extra)} outside declared set {sorted(allowed)}")
    return values


def isin_masks(values):
    """The former ``brats_labels_to_masks``: (wt, tc, et) by ``np.isin`` on the values."""
    extra = set(np.unique(values).astype(int).tolist()) - {0, 1, 2, 4}
    if extra:
        raise ValueError(f"unexpected label values {sorted(extra)}; expected subset of {{0,1,2,4}}")
    return np.isin(values, (1, 2, 4)), np.isin(values, (1, 4)), values == 4


class TreeNode:
    """The former recursive survival tree; a leaf stores its class counts and proportions."""

    def __init__(self, counts=None, feature=None, threshold=None, left=None, right=None):
        self.counts = None if counts is None else tuple(int(c) for c in counts)
        self.proba = None if counts is None else tuple(np.asarray(counts) / np.sum(counts))
        self.feature, self.threshold, self.left, self.right = feature, threshold, left, right

    def is_leaf(self):
        return self.proba is not None

    def predict(self, x):
        node = self
        while not node.is_leaf():
            node = node.left if x[node.feature] <= node.threshold else node.right
        return np.asarray(node.proba)

    def depth(self):
        return 0 if self.is_leaf() else 1 + max(self.left.depth(), self.right.depth())

    def to_dict(self):
        """The node as the version-1 model file stored it."""
        if self.is_leaf():
            return {"proba": list(self.proba)}
        return {"feature": self.feature, "threshold": self.threshold,
                "left": self.left.to_dict(), "right": self.right.to_dict()}


def best_split(x, y):
    """The former exhaustive Gini split search: (cost, feature, threshold) or None.

    Features in index order, thresholds ascending, strictly-better acceptance.
    """
    n, n_features = x.shape
    onehot = np.zeros((n, 3))
    best = None
    for f in range(n_features):
        order = np.argsort(x[:, f], kind="stable")
        xs = x[order, f]
        onehot[:] = 0.0
        onehot[np.arange(n), y[order]] = 1.0
        cum = onehot.cumsum(axis=0)
        bounds = np.nonzero(xs[:-1] != xs[1:])[0]
        if bounds.size == 0:
            continue
        thresholds = (xs[bounds] + xs[bounds + 1]) / 2.0
        usable = (xs[bounds] < thresholds) & (thresholds < xs[bounds + 1])
        bounds, thresholds = bounds[usable], thresholds[usable]
        if bounds.size == 0:
            continue
        nl = (bounds + 1).astype(float)
        nr = n - nl
        left = cum[bounds]
        right = cum[-1] - left
        gini_l = 1.0 - ((left / nl[:, None]) ** 2).sum(axis=1)
        gini_r = 1.0 - ((right / nr[:, None]) ** 2).sum(axis=1)
        cost = (nl * gini_l + nr * gini_r) / n
        i = int(np.argmin(cost))
        if best is None or cost[i] < best[0]:
            best = (float(cost[i]), f, float(thresholds[i]))
    return best


def grow_tree(x, y, depth, max_depth):
    counts = np.bincount(y, minlength=3)
    if depth >= max_depth or np.count_nonzero(counts) <= 1:
        return TreeNode(counts)
    split = best_split(x, y)
    if split is None:
        return TreeNode(counts)
    _, f, threshold = split
    left = x[:, f] <= threshold
    return TreeNode(feature=f, threshold=threshold,
                    left=grow_tree(x[left], y[left], depth + 1, max_depth),
                    right=grow_tree(x[~left], y[~left], depth + 1, max_depth))


def tree_forest(x, y, n_trees, max_depth, seed):
    """The former ``fit_forest`` on its design matrix and class indices: one tree per bootstrap."""
    n = len(y)
    trees = []
    for t in range(n_trees):
        idx = np.random.default_rng([seed, t]).integers(0, n, size=n)
        trees.append(grow_tree(x[idx], y[idx], 0, max_depth))
    return trees


def tree_forest_proba(trees, x):
    """The former ``predict_forest_proba``: per-tree proportions added in tree order."""
    acc = np.zeros(3)
    for tree in trees:
        acc += tree.predict(x)
    return acc / len(trees)


def tree_arrays(trees):
    """The trees in the stacked layout: (feature, threshold, counts) at the deepest tree's depth.

    Node k of the level order has children 2k+1 and 2k+2. A slot under a leaf
    holds feature 0 and threshold 0.0; a leaf fills every leaf slot under it.
    """
    depth = max(tree.depth() for tree in trees)
    feature = np.zeros((len(trees), 2**depth - 1), dtype=np.int64)
    threshold = np.zeros((len(trees), 2**depth - 1))
    counts = np.zeros((len(trees), 2**depth, 3), dtype=np.int64)

    def fill(t, node, k, level):
        if node.is_leaf():
            span = 2 ** (depth - level)
            first = (k - (2**level - 1)) * span
            counts[t, first:first + span] = node.counts
            return
        feature[t, k], threshold[t, k] = node.feature, node.threshold
        fill(t, node.left, 2 * k + 1, level + 1)
        fill(t, node.right, 2 * k + 2, level + 1)

    for t, tree in enumerate(trees):
        fill(t, tree, 0, 0)
    return feature, threshold, counts


def v2_tree_rows(feature, threshold, counts):
    """The former model file's ``forest.trees``: one ``[feature, threshold, counts]`` row per stacked tree."""
    return [list(row) for row in zip(*(a.tolist() for a in (feature, threshold, counts)))]


def v2_tree_arrays(rows, n_features, max_depth):
    """The former model file's reader: the stacked (feature, threshold, counts) arrays of its tree rows, checked."""
    if not rows or not 0 <= max_depth <= 10:
        raise ValueError(f"{len(rows)} trees of max_depth {max_depth} cannot be stacked")
    if not all(isinstance(row, list) and len(row) == 3 for row in rows):
        raise ValueError("each tree must be a [feature, threshold, counts] row")
    try:
        feature, threshold, counts = (np.array(column) for column in zip(*rows))
    except ValueError as exc:
        raise ValueError(f"tree rows differ in shape: {exc}") from None
    width = feature.shape[-1]
    if (feature.ndim != 2 or threshold.shape != feature.shape or width & (width + 1)
            or counts.shape != (len(rows), width + 1, 3) or width >= 2**max_depth):
        raise ValueError(f"tree rows of {width} splits and leaf counts {counts.shape[1:]} are not "
                         f"2**d - 1 splits and 2**d leaves of 3 counts with d <= max_depth {max_depth}")
    if (width and (feature.dtype.kind != "i" or threshold.dtype.kind not in "if") or counts.dtype.kind != "i"
            or not np.isfinite(threshold).all()  # below: numpy would read a JSON true or false as 1 or 0
            or any(type(v) is bool for row in rows for v in chain(row[0], row[1], *row[2]))):
        raise ValueError("split features and leaf counts must be integers, thresholds finite numbers")
    outside = feature[(feature < 0) | (feature >= n_features)]
    if outside.size:
        raise ValueError(f"split feature {outside[0]} is outside a set of {n_features}")
    if (counts < 0).any() or not counts.sum(axis=2).all():
        raise ValueError("leaf counts must be >= 0 with at least one record per leaf")
    return feature.astype(np.int64), threshold.astype(np.float64), counts.astype(np.int64)

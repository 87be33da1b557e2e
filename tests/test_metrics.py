import numpy as np
import pytest

from oracles import brute_dice, brute_hd95
from uqseg.metrics import compare_masks, dice, hausdorff95
from uqseg.volumes import Mask3D


def mask_at(coords, dims=(8, 8, 8), spacing=(1.0, 1.0, 1.0)):
    m = np.zeros(dims, dtype=bool)
    for c in coords:
        m[c] = True
    return Mask3D(m, spacing)


class TestDice:
    def test_identical(self):
        m = mask_at([(1, 1, 1), (2, 2, 2)])
        assert dice(m, m) == 1.0

    def test_disjoint(self):
        a = mask_at([(0, 0, 0)])
        b = mask_at([(5, 5, 5)])
        assert dice(a, b) == 0.0

    def test_shifted_cube(self):
        a = np.zeros((4, 4, 4), dtype=bool)
        a[0:2, 0:2, 0:2] = True  # 8 voxels
        b = np.zeros((4, 4, 4), dtype=bool)
        b[1:3, 0:2, 0:2] = True  # shifted one voxel in x, overlap 4
        assert dice(Mask3D(a), Mask3D(b)) == 0.5

    def test_both_empty(self):
        e = Mask3D(np.zeros((3, 3, 3), dtype=bool))
        assert dice(e, e) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = Mask3D(rng.random((6, 6, 6)) < 0.4)
            b = Mask3D(rng.random((6, 6, 6)) < 0.4)
            assert dice(a, b) == dice(b, a)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            dice(mask_at([], dims=(2, 2, 2)), mask_at([], dims=(3, 3, 3)))


class TestHausdorff95:
    def test_identical_masks(self):
        m = mask_at([(1, 1, 1), (1, 2, 1), (2, 1, 1)])
        assert hausdorff95(m, m) == 0.0

    def test_single_voxel_pair(self):
        a = mask_at([(0, 0, 0)])
        b = mask_at([(3, 0, 0)])
        assert hausdorff95(a, b) == pytest.approx(3.0)

    def test_shifted_line(self):
        a = np.zeros((22, 5, 5), dtype=bool)
        a[1:21, 1, 1] = True
        b = np.zeros((22, 5, 5), dtype=bool)
        b[1:21, 2, 1] = True
        assert hausdorff95(Mask3D(a), Mask3D(b)) == pytest.approx(1.0)

    def test_both_empty(self):
        e = Mask3D(np.zeros((4, 4, 4), dtype=bool))
        assert hausdorff95(e, e) == 0.0

    def test_one_empty_raises_by_default(self):
        e = Mask3D(np.zeros((4, 4, 4), dtype=bool))
        m = mask_at([(1, 1, 1)], dims=(4, 4, 4))
        with pytest.raises(ValueError, match="one mask is empty"):
            hausdorff95(m, e)

    def test_spacing_scales_distance(self):
        a = mask_at([(0, 0, 0)], spacing=(2.0, 2.0, 2.0))
        b = mask_at([(3, 0, 0)], spacing=(2.0, 2.0, 2.0))
        assert hausdorff95(a, b) == pytest.approx(6.0)

    def test_anisotropic_spacing(self):
        a = mask_at([(0, 0, 0)], spacing=(1.0, 1.0, 3.0))
        b = mask_at([(0, 0, 2)], spacing=(1.0, 1.0, 3.0))
        assert hausdorff95(a, b) == pytest.approx(6.0)

    def test_against_brute_force(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 100:
            a = rng.random((8, 8, 8)) < 0.35
            b = rng.random((8, 8, 8)) < 0.35
            if not a.any() or not b.any():
                continue
            got = hausdorff95(Mask3D(a), Mask3D(b))
            want = brute_hd95(a, b)
            assert got == pytest.approx(want, abs=1e-9)
            assert dice(Mask3D(a), Mask3D(b)) == brute_dice(a, b)
            checked += 1

    def test_symmetry(self):
        rng = np.random.default_rng(43)
        a = Mask3D(rng.random((7, 7, 7)) < 0.4)
        b = Mask3D(rng.random((7, 7, 7)) < 0.4)
        assert hausdorff95(a, b) == hausdorff95(b, a)


class TestCompareMasks:
    def test_full_result(self):
        a = mask_at([(1, 1, 1)])
        b = mask_at([(1, 1, 2)])
        result = compare_masks(a, b)
        assert result.dice == 0.0
        assert result.hd95 == pytest.approx(1.0)

    def test_empty_bookkeeping(self):
        e = Mask3D(np.zeros((3, 3, 3), dtype=bool))
        m = mask_at([(0, 0, 0)], dims=(3, 3, 3))
        both = compare_masks(e, e)
        assert both.dice == 1.0 and both.hd95 == 0.0
        one = compare_masks(m, e)
        assert one.hd95 is None
        with_sentinel = compare_masks(m, e, hd95_empty_sentinel=999.0)
        assert with_sentinel.hd95 == 999.0

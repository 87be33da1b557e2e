import numpy as np
import pytest

from oracles import CORNER26, EDGE18, FACE6, flood_fill_labels
from uqseg.volumes import (
    Axis,
    Connectivity,
    DegenerateVolumeWarning,
    Mask3D,
    Volume3D,
    count_components,
    flip_axis,
    remove_small_components,
    require_within,
    standardize_nonzero,
)

ORACLE_OFFSETS = {
    Connectivity.FACE6: FACE6,
    Connectivity.EDGE18: EDGE18,
    Connectivity.CORNER26: CORNER26,
}


def make_volume(values, dims=(4, 4, 4)):
    data = np.zeros(dims)
    for (x, y, z), v in values.items():
        data[x, y, z] = v
    return Volume3D(data)


class TestStandardize:
    def test_three_values(self):
        v = make_volume({(0, 0, 0): 1.0, (1, 0, 0): 2.0, (2, 0, 0): 3.0})
        out = standardize_nonzero(v)
        sigma = np.sqrt(2.0 / 3.0)
        assert out.data[0, 0, 0] == pytest.approx(-1.0 / sigma)
        assert out.data[0, 0, 0] == pytest.approx(-1.2247, abs=1e-4)
        assert out.data[1, 0, 0] == pytest.approx(0.0)
        assert out.data[2, 0, 0] == pytest.approx(1.2247, abs=1e-4)
        assert np.all(out.data[:, 1:, :] == 0)

    def test_fixed_point(self):
        v = make_volume({(0, 0, 0): -1.0, (1, 1, 1): 1.0})
        out = standardize_nonzero(v)
        np.testing.assert_allclose(out.data, v.data, atol=1e-12)

    def test_constant_nonzero_warns_and_zeroes(self):
        v = make_volume({(0, 0, 0): 5.0, (1, 1, 1): 5.0, (2, 2, 2): 5.0})
        with pytest.warns(DegenerateVolumeWarning):
            out = standardize_nonzero(v)
        assert np.all(out.data == 0)

    def test_all_zero_errors(self):
        with pytest.raises(ValueError, match="no foreground"):
            standardize_nonzero(Volume3D(np.zeros((3, 3, 3))))

    def test_output_statistics(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            data = rng.normal(3.0, 2.0, size=(6, 6, 6))
            data[rng.random((6, 6, 6)) < 0.3] = 0.0
            if not (data != 0).any():
                continue
            out = standardize_nonzero(Volume3D(data)).data
            values = out[data != 0]
            assert abs(values.mean()) < 1e-5
            assert abs(values.std() - 1.0) < 1e-5


class TestConnectedComponents:
    def test_empty(self):
        m = Mask3D(np.zeros((3, 3, 3), dtype=bool))
        assert count_components(m) == 0
        assert not remove_small_components(m, 5).data.any()

    def test_single_voxel(self):
        m = np.zeros((3, 3, 3), dtype=bool)
        m[1, 1, 1] = True
        assert count_components(Mask3D(m)) == 1
        np.testing.assert_array_equal(remove_small_components(Mask3D(m), 1).data, m)
        assert not remove_small_components(Mask3D(m), 2).data.any()

    def test_diagonal_pair_connectivity(self):
        m = np.zeros((2, 2, 2), dtype=bool)
        m[0, 0, 0] = True
        m[1, 1, 1] = True
        assert count_components(Mask3D(m), Connectivity.CORNER26) == 1
        assert count_components(Mask3D(m), Connectivity.EDGE18) == 2
        assert count_components(Mask3D(m), Connectivity.FACE6) == 2

    @pytest.mark.parametrize("connectivity, rank", [
        (Connectivity.FACE6, 1), (Connectivity.EDGE18, 2), (Connectivity.CORNER26, 3),
    ])
    def test_structure_is_scipy_neighbourhood(self, connectivity, rank):
        from scipy import ndimage

        got, want = connectivity.structure(), ndimage.generate_binary_structure(3, rank)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("connectivity", list(Connectivity))
    def test_against_flood_fill(self, connectivity):
        rng = np.random.default_rng(connectivity.value)
        for _ in range(200):
            mask = rng.random((8, 8, 8)) < 0.4
            min_size = int(rng.integers(0, 12))
            want_labels, want_sizes = flood_fill_labels(mask, ORACLE_OFFSETS[connectivity])
            assert count_components(Mask3D(mask), connectivity) == len(want_sizes)
            keep = np.concatenate(([False], want_sizes >= min_size))
            got = remove_small_components(Mask3D(mask), min_size, connectivity)
            np.testing.assert_array_equal(got.data, keep[want_labels])


class TestRemoveSmallComponents:
    def test_size_cutoff_is_strict(self):
        # a 9-voxel and a 10-voxel bar, separated
        m = np.zeros((25, 3, 3), dtype=bool)
        m[0:9, 0, 0] = True
        m[12:22, 0, 0] = True
        out = remove_small_components(Mask3D(m), 10)
        assert not out.data[0:9, 0, 0].any()
        assert out.data[12:22, 0, 0].all()

    def test_min_size_zero_is_identity(self):
        rng = np.random.default_rng(1)
        m = rng.random((5, 5, 5)) < 0.5
        out = remove_small_components(Mask3D(m), 0)
        np.testing.assert_array_equal(out.data, m)

    def test_small_component_removed_entirely(self):
        m = np.zeros((6, 6, 6), dtype=bool)
        m[1:6, 2, 2] = True  # 5 voxels
        out = remove_small_components(Mask3D(m), 10)
        assert not out.data.any()

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = Mask3D(rng.random((8, 8, 8)) < 0.35)
            once = remove_small_components(m, 5)
            twice = remove_small_components(once, 5)
            np.testing.assert_array_equal(once.data, twice.data)


class TestFlipAxis:
    def test_two_voxel_flip(self):
        v = Volume3D(np.array([1.0, 2.0]).reshape(2, 1, 1))
        out = flip_axis(v, Axis.X)
        assert out.data[0, 0, 0] == 2.0
        assert out.data[1, 0, 0] == 1.0

    def test_symmetric_volume_unchanged(self):
        data = np.zeros((4, 3, 3))
        data[1, 1, 1] = data[2, 1, 1] = 7.0
        out = flip_axis(Volume3D(data), Axis.X)
        np.testing.assert_array_equal(out.data, data)

    @pytest.mark.parametrize("axis", list(Axis))
    def test_involution_and_multiset(self, axis):
        rng = np.random.default_rng(3)
        v = Volume3D(rng.random((4, 5, 6)))
        once = flip_axis(v, axis)
        twice = flip_axis(once, axis)
        np.testing.assert_array_equal(twice.data, v.data)
        assert sorted(once.data.ravel()) == sorted(v.data.ravel())

    def test_mask_flip_preserves_type(self):
        m = Mask3D(np.ones((2, 2, 2), dtype=bool))
        assert isinstance(flip_axis(m, Axis.Z), Mask3D)


class TestValidation:
    def test_nonfinite_rejected(self):
        data = np.zeros((2, 2, 2))
        data[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Volume3D(data)

    def test_bad_spacing_rejected(self):
        with pytest.raises(ValueError, match="spacing"):
            Volume3D(np.zeros((2, 2, 2)), spacing=(1.0, 0.0, 1.0))

    @pytest.mark.parametrize("lo, hi, name, values, message", [
        (0.0, 1.0, "p", [-1e-9, 1.0], r"^p values must lie in \[0, 1\]$"),
        (0.0, 0.5, "q", [0.0, 0.5000001], r"^q values must lie in \[0, 0.5\]$"),
        (0.0, 100.0, "c.nii: certainty", [0.0, 250.0], r"^c.nii: certainty values must lie in \[0, 100\]$"),
    ], ids=["p-below", "q-above", "certainty-above"])
    def test_range_refused_on_either_side(self, lo, hi, name, values, message):
        require_within(Volume3D(np.full((2, 2, 2), lo)), lo, hi, name)
        require_within(Volume3D(np.full((2, 2, 2), hi)), lo, hi, name)
        with pytest.raises(ValueError, match=message):
            require_within(Volume3D(np.resize(np.asarray(values), (2, 2, 2))), lo, hi, name)

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import loop_fused_mean
from uqseg.ensemble import PredictionPair, ensemble_with_flips, fuse_single
from uqseg.volumes import Axis, Volume3D


def pair_of(p_value, q_value, dims=(2, 2, 2)):
    return PredictionPair(
        p=Volume3D(np.full(dims, p_value)),
        q=Volume3D(np.full(dims, q_value)),
    )


class TestFuseSingle:
    def test_two_model_anchor(self):
        # two maximally confident, disagreeing models average to exactly 0.5
        fused = fuse_single(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
        np.testing.assert_array_equal(fused, [0.0, 1.0])
        assert fused.mean() == 0.5

    def test_negative_branch(self):
        assert fuse_single(0.4, 0.3) == 0.3

    def test_tie_goes_negative(self):
        assert fuse_single(0.5, 0.1) == 0.1

    def test_hard_votes_at_zero_flip(self):
        assert fuse_single(0.2, 0.0) == 0.0
        assert fuse_single(0.9, 0.0) == 1.0

    @given(
        p=st.floats(min_value=0.0, max_value=1.0),
        q=st.floats(min_value=0.0, max_value=0.5),
    )
    def test_output_range(self, p, q):
        fused = float(fuse_single(p, q))
        if p <= 0.5:
            assert 0.0 <= fused <= 0.5
        else:
            assert 0.5 <= fused <= 1.0


class TestEnsembleMean:
    def test_paper_two_model_example(self):
        preds = [pair_of(0.0, 0.0), pair_of(1.0, 0.0)]
        out = ensemble_with_flips(preds)
        np.testing.assert_array_equal(out.data, 0.5)

    def test_single_confident_pair(self):
        out = ensemble_with_flips([pair_of(1.0 - 1e-7, 1e-7)])
        np.testing.assert_allclose(out.data, 1.0, atol=1e-6)

    def test_three_pair_mean(self):
        # fused values 0.2, 0.4, 0.9 at every voxel
        preds = [pair_of(0.4, 0.2), pair_of(0.3, 0.4), pair_of(0.9, 0.1)]
        out = ensemble_with_flips(preds)
        np.testing.assert_allclose(out.data, 0.5, rtol=1e-12)

    def test_empty_list_errors(self):
        with pytest.raises(ValueError, match="empty"):
            ensemble_with_flips([])

    def test_dim_mismatch_errors(self):
        with pytest.raises(ValueError, match="mismatch"):
            ensemble_with_flips([pair_of(0.5, 0.1), pair_of(0.5, 0.1, dims=(3, 2, 2))])

    def test_spacing_mismatch_errors(self):
        coarse = PredictionPair(p=Volume3D(np.full((2, 2, 2), 0.5), (1.0, 1.0, 2.0)),
                                q=Volume3D(np.full((2, 2, 2), 0.1), (1.0, 1.0, 2.0)))
        with pytest.raises(ValueError, match="spacing mismatch"):
            ensemble_with_flips([pair_of(0.5, 0.1), coarse])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        preds = [
            PredictionPair(
                p=Volume3D(rng.random((3, 3, 3))),
                q=Volume3D(rng.random((3, 3, 3)) * 0.5),
            )
            for _ in range(4)
        ]
        a = ensemble_with_flips(preds)
        b = ensemble_with_flips(list(reversed(preds)))
        np.testing.assert_allclose(a.data, b.data, rtol=1e-12)

    def test_repeats_equal_single_fuse(self):
        pair = pair_of(0.7, 0.2)
        out = ensemble_with_flips([pair, pair, pair])
        np.testing.assert_allclose(out.data, fuse_single(0.7, 0.2), rtol=1e-12)

    def test_range(self):
        rng = np.random.default_rng(1)
        preds = [
            PredictionPair(
                p=Volume3D(rng.random((4, 4, 4))),
                q=Volume3D(rng.random((4, 4, 4)) * 0.5),
            )
            for _ in range(3)
        ]
        out = ensemble_with_flips(preds)
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0


class TestEnsembleWithFlips:
    def test_no_axes_matches_mean(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            dims = tuple(int(d) for d in rng.integers(1, 7, size=3))
            preds = [
                PredictionPair(p=Volume3D(rng.random(dims)), q=Volume3D(rng.random(dims) * 0.5))
                for _ in range(int(rng.integers(1, 6)))
            ]
            expected = loop_fused_mean([(pair.p.data, pair.q.data) for pair in preds])
            assert np.array_equal(ensemble_with_flips(preds).data, expected)
            assert np.array_equal(ensemble_with_flips(preds, []).data, expected)

    def test_single_pair_with_x_flip(self):
        rng = np.random.default_rng(3)
        pair = PredictionPair(
            p=Volume3D(rng.random((4, 3, 3))),
            q=Volume3D(rng.random((4, 3, 3)) * 0.5),
        )
        out = ensemble_with_flips([pair], [Axis.X])
        fused = Volume3D(fuse_single(pair.p.data, pair.q.data))
        want = (fused.data + np.flip(fused.data, axis=0)) / 2.0
        np.testing.assert_allclose(out.data, want, rtol=1e-12)

    def test_symmetric_volume_unchanged_by_flip(self):
        data = np.zeros((4, 3, 3))
        data[1, 1, 1] = data[2, 1, 1] = 0.9
        q = np.full((4, 3, 3), 0.1)
        pair = PredictionPair(p=Volume3D(data), q=Volume3D(q))
        with_flip = ensemble_with_flips([pair], [Axis.X])
        without = ensemble_with_flips([pair], [])
        np.testing.assert_allclose(with_flip.data, without.data, rtol=1e-12)


class TestPredictionPairValidation:
    def test_p_range_enforced(self):
        with pytest.raises(ValueError, match=r"p values"):
            PredictionPair(p=Volume3D(np.full((2, 2, 2), 1.5)), q=Volume3D(np.zeros((2, 2, 2))))

    def test_q_range_enforced(self):
        with pytest.raises(ValueError, match=r"q values"):
            PredictionPair(p=Volume3D(np.zeros((2, 2, 2))), q=Volume3D(np.full((2, 2, 2), 0.6)))

    def test_spacing_mismatch(self):
        with pytest.raises(ValueError, match="spacing mismatch"):
            PredictionPair(p=Volume3D(np.zeros((2, 2, 2))),
                           q=Volume3D(np.zeros((2, 2, 2)), spacing=(1.0, 1.0, 2.0)))

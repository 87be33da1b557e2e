import numpy as np
import pytest

from uqseg.ensemble import fuse_single
from uqseg.uncertainty import (
    certainty_from_q,
    certainty_negative_only,
    certainty_symmetric,
    evaluate_uncertainty,
    negative_only_uncertainty_raw,
    symmetric_uncertainty_raw,
)
from uqseg.volumes import Mask3D, Volume3D


def vol(value, dims=(2, 2, 2)):
    return Volume3D(np.full(dims, float(value)))


class TestFormulas:
    def test_flip_formula(self):
        assert certainty_from_q(vol(0.0)).data[0, 0, 0] == 100.0
        assert certainty_from_q(vol(0.5)).data[0, 0, 0] == pytest.approx(0.0)
        assert certainty_from_q(vol(0.1)).data[0, 0, 0] == pytest.approx(80.0)

    @pytest.mark.parametrize("value", [0.51, -0.01])
    def test_flip_formula_refuses_q_outside_range(self, value):
        q = vol(0.1, dims=(3, 3, 3))
        q.data[1, 1, 1] = value
        with pytest.raises(ValueError, match=r"q values must lie in \[0, 0.5\]"):
            certainty_from_q(q)

    def test_symmetric_certainty(self):
        assert certainty_symmetric(vol(0.5)).data[0, 0, 0] == pytest.approx(0.0)
        assert certainty_symmetric(vol(0.0)).data[0, 0, 0] == 100.0
        assert certainty_symmetric(vol(1.0)).data[0, 0, 0] == 100.0
        assert certainty_symmetric(vol(0.9)).data[0, 0, 0] == pytest.approx(80.0)

    def test_symmetric_uncertainty_raw(self):
        # the raw formula scores uncertainty: boundary voxels get 100
        assert symmetric_uncertainty_raw(vol(0.9)).data[0, 0, 0] == pytest.approx(20.0)
        assert symmetric_uncertainty_raw(vol(0.5)).data[0, 0, 0] == pytest.approx(100.0)
        assert symmetric_uncertainty_raw(vol(1.0)).data[0, 0, 0] == pytest.approx(0.0)
        np.testing.assert_allclose(
            symmetric_uncertainty_raw(vol(0.3)).data + certainty_symmetric(vol(0.3)).data,
            100.0,
        )

    def test_negative_only_raw(self):
        assert negative_only_uncertainty_raw(vol(0.7)).data[0, 0, 0] == 0.0
        assert negative_only_uncertainty_raw(vol(0.0)).data[0, 0, 0] == pytest.approx(100.0)
        assert negative_only_uncertainty_raw(vol(0.2)).data[0, 0, 0] == pytest.approx(60.0)

    def test_negative_only_certainty_convention(self):
        # positives are fully certain; negatives mirror the raw uncertainty
        assert certainty_negative_only(vol(0.7)).data[0, 0, 0] == pytest.approx(100.0)
        assert certainty_negative_only(vol(0.0)).data[0, 0, 0] == pytest.approx(0.0)
        assert certainty_negative_only(vol(0.2)).data[0, 0, 0] == pytest.approx(40.0)

    def test_flip_and_symmetric_agree_through_fusion(self):
        q = np.linspace(0.0, 0.5, 32).reshape(2, 4, 4)
        p = (np.arange(32).reshape(2, 4, 4) % 2).astype(float)  # alternating hard votes
        fused = Volume3D(fuse_single(p, q))
        np.testing.assert_allclose(
            certainty_symmetric(fused).data,
            certainty_from_q(Volume3D(q)).data,
            rtol=1e-12,
            atol=1e-9,
        )

    def test_all_outputs_in_range(self):
        rng = np.random.default_rng(0)
        x = Volume3D(rng.random((5, 5, 5)))
        q = Volume3D(rng.random((5, 5, 5)) * 0.5)
        for channel in (
            certainty_from_q(q),
            certainty_symmetric(x),
            symmetric_uncertainty_raw(x),
            certainty_negative_only(x),
            negative_only_uncertainty_raw(x),
        ):
            assert channel.data.min() >= 0.0
            assert channel.data.max() <= 100.0


def three_voxel_case():
    """1 TP with high certainty, 1 FP with low certainty, 1 TN."""
    seg = Mask3D(np.array([True, True, False]).reshape(3, 1, 1))
    gt = Mask3D(np.array([True, False, False]).reshape(3, 1, 1))
    cert = Volume3D(np.array([90.0, 30.0, 90.0]).reshape(3, 1, 1))
    return seg, gt, cert


class TestEvaluateUncertainty:
    def test_hand_built_three_voxel_case(self):
        seg, gt, cert = three_voxel_case()
        curve = evaluate_uncertainty(seg, gt, cert, thresholds=(0.0, 50.0))
        assert curve.dice_at[0] == pytest.approx(2.0 / 3.0)
        assert curve.dice_at[1] == pytest.approx(1.0)  # FP filtered out at tau=50
        assert curve.ftp_at == (0.0, 0.0)
        assert curve.ftn_at == (0.0, 0.0)

    def test_all_certain_map(self):
        rng = np.random.default_rng(1)
        seg = Mask3D(rng.random((6, 6, 6)) < 0.4)
        gt = Mask3D(rng.random((6, 6, 6)) < 0.4)
        cert = vol(100.0, dims=(6, 6, 6))
        curve = evaluate_uncertainty(seg, gt, cert)
        unfiltered = curve.dice_at[0]
        assert all(d == pytest.approx(unfiltered) for d in curve.dice_at)
        assert all(f == 0.0 for f in curve.ftp_at)
        assert all(f == 0.0 for f in curve.ftn_at)
        assert curve.dice_auc == pytest.approx(unfiltered)

    def test_perfect_segmentation_any_map(self):
        rng = np.random.default_rng(2)
        mask = rng.random((6, 6, 6)) < 0.4
        cert = Volume3D(rng.random((6, 6, 6)) * 100.0)
        curve = evaluate_uncertainty(Mask3D(mask), Mask3D(mask), cert)
        assert all(d == pytest.approx(1.0) for d in curve.dice_at)

    def test_single_zero_threshold_is_unfiltered(self):
        seg, gt, cert = three_voxel_case()
        curve = evaluate_uncertainty(seg, gt, cert, thresholds=(0.0,))
        assert curve.dice_at == (pytest.approx(2.0 / 3.0),)
        assert curve.ftp_at == (0.0,)
        assert curve.ftn_at == (0.0,)

    def test_filtered_ratios_count_removals(self):
        seg = Mask3D(np.array([True, True, False, False]).reshape(4, 1, 1))
        gt = Mask3D(np.array([True, True, False, False]).reshape(4, 1, 1))
        cert = Volume3D(np.array([10.0, 90.0, 10.0, 90.0]).reshape(4, 1, 1))
        curve = evaluate_uncertainty(seg, gt, cert, thresholds=(0.0, 50.0))
        assert curve.ftp_at == (0.0, 0.5)  # one of two TPs removed
        assert curve.ftn_at == (0.0, 0.5)  # one of two TNs removed

    def test_removed_sets_are_nested(self):
        rng = np.random.default_rng(3)
        seg = Mask3D(rng.random((6, 6, 6)) < 0.5)
        gt = Mask3D(rng.random((6, 6, 6)) < 0.5)
        cert = Volume3D(rng.random((6, 6, 6)) * 100.0)
        curve = evaluate_uncertainty(seg, gt, cert)
        assert list(curve.ftp_at) == sorted(curve.ftp_at)
        assert list(curve.ftn_at) == sorted(curve.ftn_at)

    def test_empty_everything_scores_one(self):
        empty = Mask3D(np.zeros((3, 3, 3), bool))
        curve = evaluate_uncertainty(empty, empty, vol(100.0, dims=(3, 3, 3)))
        assert all(d == 1.0 for d in curve.dice_at)

    def test_threshold_validation(self):
        seg, gt, cert = three_voxel_case()
        with pytest.raises(ValueError, match="ascending"):
            evaluate_uncertainty(seg, gt, cert, thresholds=(50.0, 0.0))
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            evaluate_uncertainty(seg, gt, cert, thresholds=(0.0, 150.0))

    def test_aucs_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            seg = Mask3D(rng.random((5, 5, 5)) < 0.5)
            gt = Mask3D(rng.random((5, 5, 5)) < 0.5)
            cert = Volume3D(rng.random((5, 5, 5)) * 100.0)
            curve = evaluate_uncertainty(seg, gt, cert)
            for auc in (curve.dice_auc, curve.ftp_auc, curve.ftn_auc):
                assert 0.0 <= auc <= 1.0

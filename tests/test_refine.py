import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqseg.metrics import dice
from uqseg.phantom import diffuse_lgg_like_spec, generate_phantom, hgg_like_spec
from uqseg.refine import (
    REGION_ORDER,
    RefinementConfig,
    RegionLabel,
    SegmentationSet,
    brats_labels_to_masks,
    failsafe_mask,
    masks_to_brats_labels,
    mean_region_confidence,
    refine_region,
    refine_segmentation,
    threshold_mask,
)
from uqseg.volumes import DegenerateVolumeWarning, Mask3D, Volume3D, remove_small_components

def uniform_volume(value, dims=(6, 6, 6)):
    return Volume3D(np.full(dims, float(value)))


class TestThresholdMask:
    def test_above_and_below(self):
        v = uniform_volume(0.4)
        assert not threshold_mask(v, 0.5).data.any()
        assert threshold_mask(v, 0.05).data.all()

    def test_exact_value_is_background(self):
        v = uniform_volume(0.5)
        assert not threshold_mask(v, 0.5).data.any()


class TestMeanRegionConfidence:
    def test_two_voxel_mean(self):
        p = np.zeros((3, 3, 3))
        p[0, 0, 0], p[1, 0, 0] = 0.9, 1.0
        m = np.zeros((3, 3, 3), dtype=bool)
        m[0, 0, 0] = m[1, 0, 0] = True
        assert mean_region_confidence(Volume3D(p), Mask3D(m)) == pytest.approx(0.95)

    def test_empty_mask_absent(self):
        assert mean_region_confidence(uniform_volume(0.7), Mask3D(np.zeros((6, 6, 6), bool))) is None

    def test_full_mask(self):
        v = uniform_volume(0.7)
        assert mean_region_confidence(v, Mask3D(np.ones(v.dims, bool))) == pytest.approx(0.7)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            mean_region_confidence(uniform_volume(0.5), Mask3D(np.zeros((2, 2, 2), bool)))


class TestRefineRegion:
    def test_confident_core_keeps_base_threshold(self):
        case = generate_phantom(hgg_like_spec(0))
        p = case.p[RegionLabel.TUMOR_CORE]
        mask, report = refine_region(p, RegionLabel.TUMOR_CORE)
        assert report.mean_confidence > 0.75
        assert not report.fallback_used
        assert report.final_threshold == 0.5
        cfg = RefinementConfig()
        base = remove_small_components(
            threshold_mask(p, cfg.base_threshold), cfg.min_component_size, cfg.connectivity
        )
        np.testing.assert_array_equal(mask.data, base.data)

    def test_vague_core_triggers_fallback_and_grows(self):
        case = generate_phantom(diffuse_lgg_like_spec(0))
        p = case.p[RegionLabel.TUMOR_CORE]
        mask, report = refine_region(p, RegionLabel.TUMOR_CORE)
        assert report.mean_confidence < 0.75
        assert report.fallback_used
        assert report.final_threshold == 0.05
        cfg = RefinementConfig()
        base = remove_small_components(
            threshold_mask(p, cfg.base_threshold), cfg.min_component_size, cfg.connectivity
        )
        assert mask.data.sum() > base.data.sum()

    def test_all_zero_probability(self):
        mask, report = refine_region(uniform_volume(0.0), RegionLabel.TUMOR_CORE)
        assert not mask.data.any()
        assert report.mean_confidence is None
        assert report.fallback_used

    def test_zero_gate_never_falls_back_on_nonempty(self):
        cfg = RefinementConfig(
            confidence_gate={r: 0.0 for r in RegionLabel}, min_component_size=0
        )
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = Volume3D(rng.random((8, 8, 8)))
            mask, report = refine_region(p, RegionLabel.WHOLE_TUMOR, cfg)
            base = threshold_mask(p, cfg.base_threshold)
            if base.data.any():
                assert not report.fallback_used
                np.testing.assert_array_equal(mask.data, base.data)

    def test_fallback_superset_without_filtering(self):
        cfg = RefinementConfig(min_component_size=0)
        rng = np.random.default_rng(3)
        p = Volume3D(rng.random((8, 8, 8)) * 0.6)
        base = threshold_mask(p, cfg.base_threshold)
        fallback = threshold_mask(p, cfg.fallback_threshold)
        assert np.all(fallback.data | ~base.data)


class TestFailsafe:
    def test_minimum_size_met_with_ties(self):
        p = uniform_volume(0.3, dims=(20, 20, 20))
        mask, cut = failsafe_mask(p, 1000)
        assert mask.data.sum() >= 1000
        assert cut == pytest.approx(0.3)
        # uniform volume: every voxel ties the cut
        assert mask.data.sum() == 8000

    def test_exact_order_statistic(self):
        rng = np.random.default_rng(4)
        p = Volume3D(rng.random((12, 12, 12)))
        mask, cut = failsafe_mask(p, 1000)
        assert mask.data.sum() >= 1000
        # removing the cut voxels drops below the minimum: minimality
        assert (p.data > cut).sum() < 1000

    def test_small_volume_takes_everything(self):
        p = uniform_volume(0.2, dims=(5, 5, 5))
        mask, _ = failsafe_mask(p, 1000)
        assert mask.data.sum() == 125


class TestRefineSegmentation:
    def test_well_segmented_phantom_untouched(self):
        case = generate_phantom(hgg_like_spec(1))
        seg, report = refine_segmentation(
            case.p[RegionLabel.WHOLE_TUMOR],
            case.p[RegionLabel.TUMOR_CORE],
            case.p[RegionLabel.ENHANCING_TUMOR],
        )
        for region in RegionLabel:
            rep = report.regions[region]
            assert not rep.fallback_used and not rep.failsafe_triggered
            assert not rep.core_substituted
        cfg = RefinementConfig()
        for region, p in (
            (seg.wt, case.p[RegionLabel.WHOLE_TUMOR]),
            (seg.tc, case.p[RegionLabel.TUMOR_CORE]),
        ):
            base = remove_small_components(
                threshold_mask(p, cfg.base_threshold), cfg.min_component_size, cfg.connectivity
            )
            np.testing.assert_array_equal(region.data, base.data)

    def test_missing_core_substituted_from_whole_tumor(self):
        case = generate_phantom(hgg_like_spec(2))
        p_wt = case.p[RegionLabel.WHOLE_TUMOR]
        p_tc = Volume3D(np.full(p_wt.dims, 0.01))  # below even the fallback threshold
        seg, report = refine_segmentation(p_wt, p_tc, case.p[RegionLabel.ENHANCING_TUMOR])
        assert report.regions[RegionLabel.TUMOR_CORE].core_substituted
        np.testing.assert_array_equal(seg.tc.data, seg.wt.data)

    def test_fallback_rescues_subthreshold_tumor_without_failsafe(self):
        # max p = 0.3: nothing crosses 0.5, but the 0.05 fallback still finds
        # the tumor, so the failsafe must stay quiet
        dims = (24, 24, 24)
        grid = np.indices(dims, dtype=float)
        r = np.sqrt(((grid - 12.0) ** 2).sum(axis=0))
        p_wt = Volume3D(0.3 * np.exp(-((r / 8.0) ** 2)))
        zero = Volume3D(np.zeros(dims))
        seg, report = refine_segmentation(p_wt, zero, zero)
        wt_rep = report.regions[RegionLabel.WHOLE_TUMOR]
        assert wt_rep.fallback_used and not wt_rep.failsafe_triggered
        assert seg.wt.data.sum() > 0

    def test_failsafe_on_undetected_tumor(self):
        # max p = 0.3 but only on a single spike; the rest stays below the
        # 0.05 fallback, so even the fallback mask dies in the size filter
        dims = (24, 24, 24)
        grid = np.indices(dims, dtype=float)
        r = np.sqrt(((grid - 12.0) ** 2).sum(axis=0))
        background = 0.049 * np.exp(-((r / 9.0) ** 2))
        background[12, 12, 12] = 0.3
        p_wt = Volume3D(background)
        zero = Volume3D(np.zeros(dims))
        assert (p_wt.data > 0.05).sum() < 10  # fallback region too small to survive
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegenerateVolumeWarning)  # the cut is above 0
            seg, report = refine_segmentation(p_wt, zero, zero)
        assert report.regions[RegionLabel.WHOLE_TUMOR].failsafe_triggered
        assert seg.wt.data.sum() >= 1000
        assert report.regions[RegionLabel.TUMOR_CORE].core_substituted
        np.testing.assert_array_equal(seg.tc.data, seg.wt.data)

    def test_failsafe_keeps_a_detected_core(self):
        """An empty WT with a found TC: the failsafe replaces WT, and TC stays as refined."""
        dims = (24, 24, 24)
        p_wt = Volume3D(np.random.default_rng(3).random(dims) * 0.04)  # below the 0.05 fallback
        core = np.zeros(dims)
        core[4:8, 4:8, 4:8] = 0.95
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegenerateVolumeWarning)  # the cut is above 0
            seg, report = refine_segmentation(p_wt, Volume3D(core), Volume3D(np.zeros(dims)))
        wt_rep, tc_rep = report.regions[RegionLabel.WHOLE_TUMOR], report.regions[RegionLabel.TUMOR_CORE]
        assert wt_rep.failsafe_triggered and seg.wt.data.sum() >= 1000
        assert not tc_rep.core_substituted and not tc_rep.fallback_used
        np.testing.assert_array_equal(seg.tc.data, core > 0.5)

    def test_wt_and_tc_always_nonempty(self):
        zero = uniform_volume(0.0, dims=(16, 16, 16))
        seg, report = refine_segmentation(zero, zero, zero)
        assert seg.wt.data.sum() >= 1000
        assert seg.tc.data.sum() >= 1000
        assert report.regions[RegionLabel.WHOLE_TUMOR].failsafe_triggered

    def test_zero_failsafe_cut_warns(self):
        zero = uniform_volume(0.0, dims=(60, 60, 40))
        with pytest.warns(DegenerateVolumeWarning, match="failsafe cut is 0"):
            seg, report = refine_segmentation(zero, zero, zero)
        assert report.regions[RegionLabel.WHOLE_TUMOR].final_threshold == 0.0
        assert seg.wt.data.sum() == seg.tc.data.sum() == 60 * 60 * 40

    def test_enforce_nesting_exact(self):
        rng = np.random.default_rng(6)
        cfg = RefinementConfig(enforce_nesting=True, min_component_size=0)
        # independent random fields produce wildly non-nested raw masks
        p_wt = Volume3D(rng.random((10, 10, 10)))
        p_tc = Volume3D(rng.random((10, 10, 10)))
        p_et = Volume3D(rng.random((10, 10, 10)))
        seg, _ = refine_segmentation(p_wt, p_tc, p_et, cfg)
        assert np.all(seg.wt.data | ~seg.tc.data)  # TC subset of WT
        assert np.all(seg.tc.data | ~seg.et.data)  # ET subset of TC

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            refine_segmentation(
                uniform_volume(0.0), uniform_volume(0.0), uniform_volume(0.0, dims=(2, 2, 2))
            )

    def test_spacing_mismatch(self):
        p_tc = Volume3D(np.zeros((6, 6, 6)), spacing=(1.0, 1.0, 2.5))
        with pytest.raises(ValueError, match="spacing mismatch"):
            refine_segmentation(uniform_volume(0.0), p_tc, uniform_volume(0.0))


class TestBratsLabels:
    def test_empty_masks_give_zero_labels(self):
        empty = Mask3D(np.zeros((4, 4, 4), bool))
        labels = masks_to_brats_labels(SegmentationSet(wt=empty, tc=empty, et=empty))
        assert np.all(labels.data == 0)

    def test_priority_rule(self):
        full = Mask3D(np.ones((2, 2, 2), bool))
        labels = masks_to_brats_labels(SegmentationSet(wt=full, tc=full, et=full))
        assert np.all(labels.data == 4)

    def test_label_values(self):
        wt = np.zeros((3, 1, 1), bool)
        tc = np.zeros((3, 1, 1), bool)
        et = np.zeros((3, 1, 1), bool)
        wt[:] = True
        tc[1:] = True
        et[2:] = True
        labels = masks_to_brats_labels(SegmentationSet(wt=Mask3D(wt), tc=Mask3D(tc), et=Mask3D(et)))
        np.testing.assert_array_equal(labels.data.ravel(), [2.0, 1.0, 4.0])

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_on_nested_masks(self, seed):
        rng = np.random.default_rng(seed)
        wt = rng.random((5, 5, 5)) < 0.5
        tc = wt & (rng.random((5, 5, 5)) < 0.6)
        et = tc & (rng.random((5, 5, 5)) < 0.6)
        seg = SegmentationSet(wt=Mask3D(wt), tc=Mask3D(tc), et=Mask3D(et))
        back = brats_labels_to_masks(masks_to_brats_labels(seg))
        np.testing.assert_array_equal(back.wt.data, wt)
        np.testing.assert_array_equal(back.tc.data, tc)
        np.testing.assert_array_equal(back.et.data, et)

    @pytest.mark.parametrize("min_size", [0, 10])
    @pytest.mark.parametrize("spec", [hgg_like_spec, diffuse_lgg_like_spec])
    def test_masks_and_label_map_are_x_fastest(self, spec, min_size):
        """From x-fastest volumes, as read from files, every mask and the label map stay x-fastest."""
        case = generate_phantom(spec(seed=2))
        p = [Volume3D(np.asfortranarray(case.p[r].data)) for r in REGION_ORDER]
        empty_core = Volume3D(np.zeros(case.p[REGION_ORDER[0]].dims, order="F"))
        for wt, tc, et in ((p[0], p[1], p[2]), (p[0], empty_core, p[2]), (empty_core, empty_core, p[2])):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateVolumeWarning)  # the failsafe on an all-zero map
                seg, _ = refine_segmentation(wt, tc, et, RefinementConfig(min_component_size=min_size))
            assert all(seg.mask(r).data.flags.f_contiguous for r in REGION_ORDER)
            assert masks_to_brats_labels(seg).data.flags.f_contiguous

    def test_unexpected_label_rejected(self):
        with pytest.raises(ValueError, match=r"^label values \[3\] outside declared set \[0, 1, 2, 4\]$"):
            brats_labels_to_masks(Volume3D(np.full((2, 2, 2), 3.0)))


class TestConfigValidation:
    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError, match="fallback"):
            RefinementConfig(base_threshold=0.05, fallback_threshold=0.5)

    def test_gate_range(self):
        with pytest.raises(ValueError, match="gate"):
            RefinementConfig(confidence_gate={RegionLabel.WHOLE_TUMOR: 1.5})

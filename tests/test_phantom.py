import numpy as np
import pytest

from uqseg.phantom import (
    PRESETS,
    PhantomSpec,
    SphereSpec,
    diffuse_lgg_like_spec,
    generate_phantom,
    hgg_like_spec,
)
from uqseg.refine import RefinementConfig, RegionLabel, refine_region, threshold_mask
from uqseg.volumes import remove_small_components


def simple_spec(**kwargs):
    center = (12.0, 12.0, 12.0)
    defaults = dict(
        dims=(24, 24, 24),
        regions={
            RegionLabel.WHOLE_TUMOR: SphereSpec(center, 9.0, 1.0, falloff=0.0),
            RegionLabel.TUMOR_CORE: SphereSpec(center, 6.0, 1.0, falloff=0.0),
            RegionLabel.ENHANCING_TUMOR: SphereSpec(center, 3.0, 1.0, falloff=0.0),
        },
        noise_sigma=0.0,
    )
    defaults.update(kwargs)
    return PhantomSpec(**defaults)


class TestGeneratePhantom:
    def test_deterministic_from_seed(self):
        spec = hgg_like_spec(7)
        a = generate_phantom(spec)
        b = generate_phantom(spec)
        for region in RegionLabel:
            np.testing.assert_array_equal(a.p[region].data, b.p[region].data)
            np.testing.assert_array_equal(a.q[region].data, b.q[region].data)

    def test_hard_phantom_recovered_by_thresholding(self):
        case = generate_phantom(simple_spec())
        for region, mask in (
            (RegionLabel.WHOLE_TUMOR, case.gt.wt),
            (RegionLabel.TUMOR_CORE, case.gt.tc),
            (RegionLabel.ENHANCING_TUMOR, case.gt.et),
        ):
            got = threshold_mask(case.p[region], 0.5)
            np.testing.assert_array_equal(got.data, mask.data)

    def test_zero_radius_region_empty(self):
        spec = simple_spec()
        regions = dict(spec.regions)
        regions[RegionLabel.ENHANCING_TUMOR] = SphereSpec((12.0, 12.0, 12.0), 0.0, 0.0)
        case = generate_phantom(simple_spec(regions=regions))
        assert not case.gt.et.data.any()
        assert np.all(case.p[RegionLabel.ENHANCING_TUMOR].data == 0)

    def test_q_levels(self):
        spec = simple_spec(q_inside=0.05, q_outside=0.02)
        case = generate_phantom(spec)
        q = case.q[RegionLabel.WHOLE_TUMOR].data
        assert q[12, 12, 12] == pytest.approx(0.05)
        assert q[0, 0, 0] == pytest.approx(0.02)

    def test_out_of_bounds_sphere_rejected(self):
        with pytest.raises(ValueError, match="exceeds volume bounds"):
            simple_spec(
                regions={
                    RegionLabel.WHOLE_TUMOR: SphereSpec((2.0, 12.0, 12.0), 9.0, 1.0),
                    RegionLabel.TUMOR_CORE: SphereSpec((2.0, 12.0, 12.0), 1.0, 1.0),
                    RegionLabel.ENHANCING_TUMOR: SphereSpec((2.0, 12.0, 12.0), 0.0, 0.0),
                }
            )

    def test_non_nested_spheres_rejected(self):
        center = (12.0, 12.0, 12.0)
        with pytest.raises(ValueError, match="not contained"):
            simple_spec(
                regions={
                    RegionLabel.WHOLE_TUMOR: SphereSpec(center, 5.0, 1.0),
                    RegionLabel.TUMOR_CORE: SphereSpec(center, 8.0, 1.0),
                    RegionLabel.ENHANCING_TUMOR: SphereSpec(center, 0.0, 0.0),
                }
            )


class TestPresets:
    def test_hgg_preset_confident_core(self):
        case = generate_phantom(hgg_like_spec(0))
        p = case.p[RegionLabel.TUMOR_CORE]
        cfg = RefinementConfig()
        base = remove_small_components(
            threshold_mask(p, cfg.base_threshold), cfg.min_component_size, cfg.connectivity
        )
        conf = p.data[base.data].mean()
        assert conf > 0.9

    def test_diffuse_preset_triggers_fallback(self):
        case = generate_phantom(diffuse_lgg_like_spec(0))
        _, report = refine_region(case.p[RegionLabel.TUMOR_CORE], RegionLabel.TUMOR_CORE)
        assert report.mean_confidence < 0.75
        assert report.fallback_used

    def test_preset_registry(self):
        assert set(PRESETS) == {"hgg-like", "diffuse-lgg-like"}
        for factory in PRESETS.values():
            spec = factory(3)
            assert isinstance(spec, PhantomSpec)

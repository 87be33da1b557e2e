"""Uncertainty-aware brain-tumor segmentation toolkit.

Operates on probability/uncertainty volumes produced by any upstream model:
loss family with analytic gradients, prediction fusion, confidence-gated
refinement, challenge-scale certainty maps, segmentation metrics, and the
fused OLS/random-forest survival predictor.
"""
from .volumes import (
    Axis,
    Connectivity,
    DegenerateVolumeWarning,
    Mask3D,
    Volume3D,
    count_components,
    flip_axis,
    remove_small_components,
    standardize_nonzero,
)
from .losses import (
    KlVariant,
    LossConfig,
    LossInputs,
    batch_loss,
    bce,
    combined_loss_2020,
    focal,
    focal_kl,
    kl,
    label_flip_loss_2019,
)
from .ensemble import PredictionPair, ensemble_with_flips, fuse_single
from .refine import (
    RefinementConfig,
    RefinementReport,
    RegionLabel,
    RegionReport,
    SegmentationSet,
    brats_labels_to_masks,
    masks_to_brats_labels,
    mean_region_confidence,
    refine_region,
    refine_segmentation,
    threshold_mask,
)
from .uncertainty import (
    UncertaintyEvalCurve,
    certainty_from_q,
    certainty_negative_only,
    certainty_symmetric,
    evaluate_uncertainty,
    negative_only_uncertainty_raw,
    symmetric_uncertainty_raw,
)
from .metrics import MetricResult, compare_masks, dice, hausdorff95
from .survival import (
    ClassBins,
    ForestModel,
    FusionModel,
    OlsModel,
    SurvivalClass,
    SurvivalRecord,
    cross_validate,
    evaluate_survival,
    extract_features,
    fit_forest,
    fit_fusion,
    fit_ols,
    load_model,
    predict_forest_proba,
    predict_fused,
    save_model,
)
from .nifti import NiftiHeaderView, read_label_volume, read_nifti, write_nifti
from .phantom import PhantomCase, PhantomSpec, SphereSpec, generate_phantom
from .config import PipelineConfig, SurvivalConfig, load_config

__version__ = "0.1.0"

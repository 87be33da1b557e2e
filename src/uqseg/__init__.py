"""Uncertainty-aware brain-tumor segmentation toolkit.

Operates on probability/uncertainty volumes produced by any upstream model:
loss family with analytic gradients, prediction fusion, confidence-gated
refinement, challenge-scale certainty maps, segmentation metrics, and the
fused OLS/random-forest survival predictor.

Names are imported from their modules (``from uqseg.refine import refine_segmentation``);
the package root exports only ``__version__``, so a module loads only what it uses.
"""

__version__ = "0.1.0"

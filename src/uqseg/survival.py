"""Survival prediction from age and segmentation-derived counts.

Features are deliberately simple: patient age, the number of disconnected
whole-tumor components and the number of disconnected tumor-core components.
A capped least-squares model predicts survival days; a seeded random-forest
classifier predicts the survival class and may override the regression when
it is confident and disagrees.
"""
from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import write_atomic
from .refine import SegmentationSet
from .volumes import Connectivity, count_components


class SurvivalClass(enum.Enum):
    SHORT = "short"
    MID = "mid"
    LONG = "long"


CLASS_ORDER = (SurvivalClass.SHORT, SurvivalClass.MID, SurvivalClass.LONG)

FEATURE_NAMES = ("age", "n_tumors", "n_cores")

# Defaults of the fitters, shared with config.SurvivalConfig.
DEFAULT_OLS_FEATURES = ("age",)
DEFAULT_CAP_DAYS = 1000.0
DEFAULT_N_TREES = 1000
DEFAULT_MAX_DEPTH = 3
DEFAULT_OVERRIDE_PROB = 0.5
# Day value the fused model predicts when the forest overrides into a class.
DEFAULT_OVERRIDE_DAYS = {
    SurvivalClass.SHORT: 299.0,
    SurvivalClass.MID: 375.0,
    SurvivalClass.LONG: 451.0,
}


@dataclass(frozen=True)
class ClassBins:
    """Day cutoffs for the three survival classes (month = 30 days).

    Short is strictly below ``short_max``; Mid is the closed interval
    [short_max, long_min]; Long is strictly above ``long_min``.
    """

    short_max: float = 300.0
    long_min: float = 450.0

    def classify(self, days: float) -> SurvivalClass:
        if days < self.short_max:
            return SurvivalClass.SHORT
        if days > self.long_min:
            return SurvivalClass.LONG
        return SurvivalClass.MID


@dataclass
class SurvivalRecord:
    case_id: str
    age: float
    n_tumors: int
    n_cores: int
    survival_days: float | None = None

    def __post_init__(self):
        days = () if self.survival_days is None else (self.survival_days,)
        if not all(math.isfinite(v) for v in (self.age, self.n_tumors, self.n_cores, *days)):
            raise ValueError(f"age, component counts and survival_days must be finite ({self.case_id})")
        if self.age <= 0:
            raise ValueError(f"age must be positive, got {self.age} ({self.case_id})")
        if self.n_tumors < 0 or self.n_cores < 0:
            raise ValueError(f"component counts must be >= 0 ({self.case_id})")

    def feature(self, name: str) -> float:
        if name not in FEATURE_NAMES:
            raise ValueError(f"unknown feature {name!r}; expected one of {FEATURE_NAMES}")
        return float(getattr(self, name))


def extract_features(
    seg: SegmentationSet,
    age: float,
    connectivity: Connectivity = Connectivity.CORNER26,
    case_id: str = "",
    survival_days: float | None = None,
) -> SurvivalRecord:
    """Count disconnected WT and TC components of a refined segmentation."""
    return SurvivalRecord(
        case_id=case_id,
        age=age,
        n_tumors=count_components(seg.wt, connectivity),
        n_cores=count_components(seg.tc, connectivity),
        survival_days=survival_days,
    )


def _design_matrix(records, feature_set):
    rows = [[rec.feature(name) for name in feature_set] for rec in records]
    return np.asarray(rows, dtype=np.float64)


def _require_labeled(records):
    missing = [r.case_id for r in records if r.survival_days is None]
    if missing:
        raise ValueError(f"records without survival_days: {missing[:5]}")


@dataclass
class OlsModel:
    feature_set: tuple[str, ...]
    coefficients: np.ndarray  # intercept first, then one per feature
    cap_days: float = DEFAULT_CAP_DAYS

    def predict(self, rec: SurvivalRecord) -> float:
        x = np.concatenate(([1.0], [rec.feature(name) for name in self.feature_set]))
        return float(x @ self.coefficients)


def fit_ols(
    records,
    feature_set: tuple[str, ...] = DEFAULT_OLS_FEATURES,
    cap_days: float = DEFAULT_CAP_DAYS,
) -> OlsModel:
    """Least squares on survival days, capping targets at ``cap_days`` first.

    Solved via lstsq (SVD pseudo-inverse), so rank-deficient designs get the
    minimum-norm solution instead of failing.
    """
    records = sorted(records, key=lambda r: r.case_id)
    _require_labeled(records)
    if len(records) < len(feature_set) + 1:
        raise ValueError(
            f"need at least {len(feature_set) + 1} records to fit {len(feature_set)} "
            f"features plus intercept, got {len(records)}"
        )
    feats = _design_matrix(records, feature_set)
    design = np.hstack([np.ones((len(records), 1)), feats])
    targets = np.minimum([r.survival_days for r in records], cap_days)
    coef, *_ = np.linalg.lstsq(design, targets, rcond=None)
    return OlsModel(feature_set=tuple(feature_set), coefficients=coef, cap_days=cap_days)


@dataclass
class TreeNode:
    """Decision-tree node; a leaf stores class proportions over CLASS_ORDER."""

    proba: tuple[float, float, float] | None = None
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    def is_leaf(self) -> bool:
        return self.proba is not None

    def predict(self, x: np.ndarray) -> np.ndarray:
        node = self
        while not node.is_leaf():
            node = node.left if x[node.feature] <= node.threshold else node.right
        return np.asarray(node.proba)

    def depth(self) -> int:
        if self.is_leaf():
            return 0
        return 1 + max(self.left.depth(), self.right.depth())

    def to_dict(self) -> dict:
        if self.is_leaf():
            return {"proba": list(self.proba)}
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @staticmethod
    def from_dict(d: dict, n_features: int) -> "TreeNode":
        """The subtree stored in ``d``; each split must index a set of ``n_features``."""
        if "proba" in d:
            proba = _field(d, "proba", list)
            if len(proba) != 3 or not all(_is_number(v) for v in proba):
                raise ValueError(f"leaf proba {proba} is not three numbers")
            return TreeNode(proba=tuple(proba))
        feature = _field(d, "feature", int)
        if not 0 <= feature < n_features:
            raise ValueError(f"split feature {feature} is outside a set of {n_features}")
        return TreeNode(
            feature=feature,
            threshold=_field(d, "threshold", _NUMBER),
            left=TreeNode.from_dict(d["left"], n_features),
            right=TreeNode.from_dict(d["right"], n_features),
        )


def _best_split(x: np.ndarray, y: np.ndarray):
    """Exhaustive Gini split search.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values of each feature. Features are scanned in index order and
    thresholds in ascending order with strictly-better acceptance, so ties
    resolve to the lowest feature index, then the lowest threshold.
    """
    n, n_features = x.shape
    onehot = np.zeros((n, 3))
    best = None  # (cost, feature, threshold)
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
        # guard against midpoints that round onto a sample value
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
        i = int(np.argmin(cost))  # first minimum: lowest threshold wins ties
        if best is None or cost[i] < best[0]:
            best = (float(cost[i]), f, float(thresholds[i]))
    return best


def _grow_tree(x: np.ndarray, y: np.ndarray, depth: int, max_depth: int) -> TreeNode:
    counts = np.bincount(y, minlength=3)
    proba = tuple(counts / counts.sum())
    if depth >= max_depth or np.count_nonzero(counts) <= 1:
        return TreeNode(proba=proba)
    split = _best_split(x, y)
    if split is None:
        return TreeNode(proba=proba)
    _, f, threshold = split
    left = x[:, f] <= threshold
    return TreeNode(
        feature=f,
        threshold=threshold,
        left=_grow_tree(x[left], y[left], depth + 1, max_depth),
        right=_grow_tree(x[~left], y[~left], depth + 1, max_depth),
    )


@dataclass
class ForestModel:
    feature_set: tuple[str, ...]
    max_depth: int
    seed: int = 0
    trees: list[TreeNode] = field(default_factory=list)


def fit_forest(
    records,
    feature_set: tuple[str, ...] = FEATURE_NAMES,
    n_trees: int = DEFAULT_N_TREES,
    max_depth: int = DEFAULT_MAX_DEPTH,
    seed: int = 0,
    bins: ClassBins | None = None,
) -> ForestModel:
    """Bootstrap-aggregated Gini trees with fully deterministic seeding.

    Tree t resamples the training set with ``default_rng([seed, t])``, so the
    fitted model is a pure function of (seed, data) and independent of the
    input record order (records are canonically sorted by case_id first).
    """
    bins = bins or ClassBins()
    records = sorted(records, key=lambda r: r.case_id)
    _require_labeled(records)
    if not records:
        raise ValueError("cannot fit a forest on an empty training set")
    x = _design_matrix(records, feature_set)
    y = np.asarray(
        [CLASS_ORDER.index(bins.classify(r.survival_days)) for r in records], dtype=np.int64
    )
    n = len(records)
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        idx = rng.integers(0, n, size=n)
        trees.append(_grow_tree(x[idx], y[idx], 0, max_depth))
    return ForestModel(
        feature_set=tuple(feature_set), max_depth=max_depth, seed=seed, trees=trees
    )


def predict_forest_proba(model: ForestModel, rec: SurvivalRecord) -> np.ndarray:
    """Mean of the per-tree leaf class proportions, ordered (short, mid, long)."""
    x = np.asarray([rec.feature(name) for name in model.feature_set])
    acc = np.zeros(3)
    for tree in model.trees:
        acc += tree.predict(x)
    return acc / len(model.trees)


@dataclass
class FusionModel:
    """Regression prediction with a confident-classifier override.

    The forest may move the predicted survival to a fixed day value inside
    its predicted class, but only when it disagrees with the regression's
    class and its probability reaches ``override_prob``.
    """

    ols: OlsModel
    forest: ForestModel
    override_prob: float = DEFAULT_OVERRIDE_PROB
    override_days: dict[SurvivalClass, float] = field(
        default_factory=lambda: dict(DEFAULT_OVERRIDE_DAYS)
    )
    bins: ClassBins = field(default_factory=ClassBins)

    def __post_init__(self):
        for cls, days in self.override_days.items():
            if self.bins.classify(days) is not cls:
                raise ValueError(
                    f"override value {days} for {cls.value} falls outside its own class bin"
                )


def predict_fused(model: FusionModel, rec: SurvivalRecord) -> float:
    days = min(max(model.ols.predict(rec), 0.0), model.ols.cap_days)
    linear_class = model.bins.classify(days)
    proba = predict_forest_proba(model.forest, rec)
    rf_idx = int(np.argmax(proba))
    rf_class = CLASS_ORDER[rf_idx]
    if rf_class is not linear_class and proba[rf_idx] >= model.override_prob:
        return float(model.override_days[rf_class])
    return days


def fit_fusion(
    records,
    seed: int = 0,
    ols_features: tuple[str, ...] = DEFAULT_OLS_FEATURES,
    forest_features: tuple[str, ...] = FEATURE_NAMES,
    n_trees: int = DEFAULT_N_TREES,
    max_depth: int = DEFAULT_MAX_DEPTH,
    cap_days: float = DEFAULT_CAP_DAYS,
    override_prob: float = DEFAULT_OVERRIDE_PROB,
    override_days: dict[SurvivalClass, float] | None = None,
    bins: ClassBins | None = None,
) -> FusionModel:
    bins = bins or ClassBins()
    ols = fit_ols(records, feature_set=ols_features, cap_days=cap_days)
    forest = fit_forest(
        records,
        feature_set=forest_features,
        n_trees=n_trees,
        max_depth=max_depth,
        seed=seed,
        bins=bins,
    )
    kwargs = {} if override_days is None else {"override_days": dict(override_days)}
    return FusionModel(ols=ols, forest=forest, override_prob=override_prob, bins=bins, **kwargs)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def evaluate_survival(pairs, bins: ClassBins | None = None) -> dict[str, float]:
    """Challenge-style summary over (predicted_days, true_days) pairs.

    Accuracy is over the three class bins; squared errors are on raw days
    (stdSE uses the population convention); Spearman uses average ranks for
    ties.
    """
    bins = bins or ClassBins()
    pairs = list(pairs)
    if not pairs:
        raise ValueError("cannot evaluate an empty prediction list")
    pred = np.asarray([p for p, _ in pairs], dtype=np.float64)
    true = np.asarray([t for _, t in pairs], dtype=np.float64)
    hits = [bins.classify(p) is bins.classify(t) for p, t in pairs]
    se = (pred - true) ** 2
    spearman = np.nan  # undefined for a single pair or a constant side
    if np.ptp(pred) > 0 and np.ptp(true) > 0:
        ranks = np.column_stack((_average_ranks(pred), _average_ranks(true)))
        spearman = np.corrcoef(ranks, rowvar=False)[1, 0]  # the scipy.stats.spearmanr order
    return {
        "accuracy": float(np.mean(hits)),
        "mse": float(se.mean()),
        "median_se": float(np.median(se)),
        "std_se": float(se.std()),
        "spearman_r": float(spearman),
    }


def kfold_split(n: int, folds: int, seed: int) -> list[np.ndarray]:
    """Deterministic shuffled fold assignment: index arrays per fold."""
    if folds < 2 or folds > n:
        raise ValueError(f"folds must be in [2, {n}], got {folds}")
    perm = np.random.default_rng([seed]).permutation(n)
    return [np.sort(chunk) for chunk in np.array_split(perm, folds)]


def cross_validate(records, fit_predict, folds: int = 5, seed: int = 0,
                   bins: ClassBins | None = None) -> list[float]:
    """Per-fold class accuracy of ``fit_predict(train) -> (record -> days)``.

    Records are canonically sorted by case_id before the seeded split, so the
    fold assignment is reproducible regardless of input order.
    """
    bins = bins or ClassBins()
    records = sorted(records, key=lambda r: r.case_id)
    _require_labeled(records)
    accuracies = []
    for fold_idx in kfold_split(len(records), folds, seed):
        held = set(fold_idx.tolist())
        train = [r for i, r in enumerate(records) if i not in held]
        test = [records[i] for i in sorted(held)]
        predictor = fit_predict(train)
        pairs = [(predictor(r), r.survival_days) for r in test]
        accuracies.append(evaluate_survival(pairs, bins)["accuracy"])
    return accuracies


# --- persistence ---------------------------------------------------------

MODEL_FORMAT = "uqseg-survival-fusion"
MODEL_VERSION = 1


def model_to_json(model: FusionModel) -> str:
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "bins": {"short_max": model.bins.short_max, "long_min": model.bins.long_min},
        "override_prob": model.override_prob,
        "override_days": {cls.value: model.override_days[cls] for cls in CLASS_ORDER},
        "ols": {
            "feature_set": list(model.ols.feature_set),
            "coefficients": model.ols.coefficients.tolist(),
            "cap_days": model.ols.cap_days,
        },
        "forest": {
            "feature_set": list(model.forest.feature_set),
            "n_trees": len(model.forest.trees),
            "max_depth": model.forest.max_depth,
            "seed": model.forest.seed,
            "trees": [tree.to_dict() for tree in model.forest.trees],
        },
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def save_model(model: FusionModel, path) -> None:
    write_atomic(path, model_to_json(model).encode())


_NUMBER = (int, float)


def _is_number(value) -> bool:
    return isinstance(value, _NUMBER) and not isinstance(value, bool)


def _field(doc: dict, key: str, kind):
    """``doc[key]``, which must be a ``kind``; JSON booleans are not numbers."""
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"{key!r} is a {type(value).__name__}")
    return value


def _feature_set(doc: dict) -> tuple[str, ...]:
    names = tuple(_field(doc, "feature_set", list))
    unknown = [name for name in names if name not in FEATURE_NAMES]
    if unknown:
        raise ValueError(f"unknown feature(s) {unknown}; expected names from {FEATURE_NAMES}")
    return names


def load_model(path) -> FusionModel:
    try:
        doc = json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: not a JSON survival model: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a survival fusion model file: {path}")
    try:
        bins, ols, forest = (_field(doc, key, dict) for key in ("bins", "ols", "forest"))
        ols_features, forest_features = _feature_set(ols), _feature_set(forest)
        trees = [TreeNode.from_dict(d, len(forest_features)) for d in _field(forest, "trees", list)]
        if _field(forest, "n_trees", int) != len(trees):
            raise ValueError(f"n_trees is {forest['n_trees']} but {len(trees)} trees are stored")
        coefficients = _field(ols, "coefficients", list)
        if len(coefficients) != len(ols_features) + 1:
            raise ValueError(f"{len(coefficients)} OLS coefficients for {len(ols_features)} "
                             "features; expected an intercept plus one per feature")
        days = _field(doc, "override_days", dict)
        return FusionModel(
            ols=OlsModel(
                feature_set=ols_features,
                coefficients=np.asarray(coefficients, dtype=np.float64),
                cap_days=_field(ols, "cap_days", _NUMBER),
            ),
            forest=ForestModel(
                feature_set=forest_features,
                max_depth=_field(forest, "max_depth", int),
                seed=_field(forest, "seed", int),
                trees=trees,
            ),
            override_prob=_field(doc, "override_prob", _NUMBER),
            override_days={cls: _field(days, cls.value, _NUMBER) for cls in CLASS_ORDER},
            bins=ClassBins(_field(bins, "short_max", _NUMBER), _field(bins, "long_min", _NUMBER)),
        )
    except KeyError as exc:
        raise ValueError(f"{path}: survival model lacks key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad survival model: {exc}") from exc

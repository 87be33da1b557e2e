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


@dataclass(frozen=True)
class ClassBins:
    """Day cutoffs for the three survival classes (month = 30 days).

    Short is strictly below ``short_max``; Mid is the closed interval
    [short_max, long_min]; Long is strictly above ``long_min``.
    """

    short_max: float = 300.0
    long_min: float = 450.0

    def __post_init__(self):
        if not self.short_max <= self.long_min:  # NaN too
            raise ValueError(f"short_max_days {self.short_max} must not exceed long_min_days {self.long_min}")

    def classify(self, days: float) -> SurvivalClass:
        if days < self.short_max:
            return SurvivalClass.SHORT
        if days > self.long_min:
            return SurvivalClass.LONG
        return SurvivalClass.MID


@dataclass
class SurvivalConfig:
    """The keyword arguments of :func:`fit_fusion` but the seed: the one place their defaults are written."""

    ols_features: tuple[str, ...] = ("age",)
    forest_features: tuple[str, ...] = FEATURE_NAMES
    n_trees: int = 1000
    max_depth: int = 3
    cap_days: float = 1000.0
    override_prob: float = 0.5
    override_days: dict[SurvivalClass, float] = field(  # the day value an override predicts
        default_factory=lambda: {SurvivalClass.SHORT: 299.0, SurvivalClass.MID: 375.0, SurvivalClass.LONG: 451.0}
    )
    bins: ClassBins = ClassBins()

    def __post_init__(self):
        if not self.cap_days > 0:
            raise ValueError(f"cap_days must be > 0, got {self.cap_days!r}")
        if not 0.0 <= self.override_prob <= 1.0:
            raise ValueError(f"override_prob must be in [0, 1], got {self.override_prob!r}")
        for key in ("ols_features", "forest_features"):
            for name in getattr(self, key):
                if name not in FEATURE_NAMES:
                    raise ValueError(f"unknown survival feature {name!r} in {key}")
        for cls, days in self.override_days.items():
            if self.bins.classify(days) is not cls:
                raise ValueError(f"override value {days} for {cls.value} falls outside its own class bin")


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
    cap_days: float = SurvivalConfig.cap_days

    def predict(self, rec: SurvivalRecord) -> float:
        """The fitted days, clipped to [0, ``cap_days``]."""
        x = np.concatenate(([1.0], [rec.feature(name) for name in self.feature_set]))
        return min(max(float(x @ self.coefficients), 0.0), self.cap_days)


def fit_ols(
    records,
    feature_set: tuple[str, ...] = SurvivalConfig.ols_features,
    cap_days: float = SurvivalConfig.cap_days,
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


MAX_DEPTH = 10  # a stacked tree holds 2**max_depth leaf slots
SPLIT_BATCH = 1 << 14  # (tree, record) pairs searched for splits at once: bounds the fit's temporaries


def check_forest_size(n_trees, max_depth) -> None:
    """Refuse, naming the key, a size the stacked forest cannot hold."""
    for key, value, low, high in (("n_trees", n_trees, 1, math.inf), ("max_depth", max_depth, 0, MAX_DEPTH)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not low <= value <= high:
            raise ValueError(f"{key} must be an integer in [{low}, {high}], got {value!r}")


@dataclass
class ForestModel:
    """Trees stacked as complete binary trees of one depth d <= ``max_depth``.

    Node k of each tree (level order: root 0, children 2k+1 and 2k+2) sends a
    record left when ``x[feature[t, k]] <= threshold[t, k]``; leaf slot j holds
    class counts ``counts[t, j]`` over CLASS_ORDER. A leaf above depth d fills
    every leaf slot under it, so routing below it cannot matter.
    """

    feature_set: tuple[str, ...]
    max_depth: int
    feature: np.ndarray  # (n_trees, 2**d - 1) feature indices
    threshold: np.ndarray  # (n_trees, 2**d - 1) float64
    counts: np.ndarray  # (n_trees, 2**d, 3) int64
    seed: int = 0


def _best_splits(distinct, y, weight, node, active):
    """(feature, threshold, found) of each active node's least-cost Gini split.

    Candidates are the usable midpoints (not rounded onto a value) between consecutive distinct
    values a tree draws into the node; the lowest threshold, then the lowest feature wins a tie.
    """
    number = np.cumsum(active).reshape(active.shape) - 1  # active nodes in (tree, node) order
    t, i = np.nonzero(active[np.arange(len(node))[:, None], node] & (weight > 0))
    a, w, c = number[t, node[t, i]], weight[t, i], y[i]
    best = np.full(np.count_nonzero(active), np.inf)
    feature, threshold = np.zeros(best.size, dtype=np.int64), np.zeros(best.size)
    for f, (values, code) in enumerate(distinct):
        # the (node, value) pairs present, sorted, and their class counts
        pairs, group = np.unique(a * len(values) + code[i], return_inverse=True)
        hist = np.bincount(group * 3 + c, w, len(pairs) * 3).reshape(-1, 3)
        owner, value = np.divmod(pairs, len(values))
        first = np.r_[True, owner[1:] != owner[:-1]][: len(pairs)]
        last = np.r_[first[1:], True][: len(pairs)]
        g = np.flatnonzero(~last)  # pairs with a higher value in their node
        lo, hi = values[value[g]], values[value[g + 1]]
        thresholds = (lo + hi) / 2.0
        usable = (lo < thresholds) & (thresholds < hi)
        g, thresholds = g[usable], thresholds[usable]
        if not g.size:
            continue
        cum = hist.cumsum(axis=0)
        run = (np.cumsum(first) - 1)[g]  # each candidate's node among the nodes present
        before = (cum - hist)[first][run]  # the counts of the earlier nodes
        left = cum[g] - before
        right = cum[last][run] - before - left
        nl, nr = left.sum(axis=1), right.sum(axis=1)
        gini_l = 1.0 - ((left / nl[:, None]) ** 2).sum(axis=1)
        gini_r = 1.0 - ((right / nr[:, None]) ** 2).sum(axis=1)
        cost = (nl * gini_l + nr * gini_r) / (nl + nr)
        head = np.r_[True, run[1:] != run[:-1]]
        hit = np.flatnonzero(cost == np.minimum.reduceat(cost, np.flatnonzero(head))[np.cumsum(head) - 1])
        pick = hit[np.r_[True, run[hit][1:] != run[hit][:-1]]]  # each node's first least cost
        won = owner[g][pick]
        better = cost[pick] < best[won]
        won, pick = won[better], pick[better]
        best[won], feature[won], threshold[won] = cost[pick], f, thresholds[pick]
    return feature, threshold, np.isfinite(best)


def fit_forest(
    records,
    feature_set: tuple[str, ...] = SurvivalConfig.forest_features,
    n_trees: int = SurvivalConfig.n_trees,
    max_depth: int = SurvivalConfig.max_depth,
    seed: int = 0,
    bins: ClassBins = ClassBins(),
) -> ForestModel:
    """Bootstrap-aggregated Gini trees with fully deterministic seeding.

    Tree t resamples the training set with ``default_rng([seed, t])``, so the
    fitted model is a pure function of (seed, data) and independent of the
    input record order (records are canonically sorted by case_id first).
    All trees grow at once, level by level. A node is a leaf when it holds
    one class, lies at ``max_depth`` or has no usable split.
    """
    check_forest_size(n_trees, max_depth)
    records = sorted(records, key=lambda r: r.case_id)
    _require_labeled(records)
    if not records:
        raise ValueError("cannot fit a forest on an empty training set")
    x = _design_matrix(records, feature_set)
    y = np.asarray(
        [CLASS_ORDER.index(bins.classify(r.survival_days)) for r in records], dtype=np.int64
    )
    n = len(records)
    weight = np.stack([  # how often each tree draws each record
        np.bincount(np.random.default_rng([seed, t]).integers(0, n, size=n), minlength=n)
        for t in range(n_trees)
    ])
    distinct = [np.unique(column, return_inverse=True) for column in x.T]
    rows, step = np.arange(n_trees)[:, None], max(1, SPLIT_BATCH // n)
    node = np.zeros((n_trees, n), dtype=np.int64)  # each record's node on the level
    levels, under_split = [], np.ones((n_trees, 1), dtype=bool)
    for level in range(max_depth + 1):
        width = 2**level
        counts = np.bincount(((rows * width + node) * 3 + y).ravel(), weight.ravel(),
                             n_trees * width * 3).reshape(n_trees, width, 3).astype(np.int64)
        active = under_split & (np.count_nonzero(counts, axis=2) > 1) & (level < max_depth)
        feature, threshold = np.zeros((n_trees, width), dtype=np.int64), np.zeros((n_trees, width))
        split = active.copy()
        found = [_best_splits(distinct, y, weight[k:k + step], node[k:k + step], active[k:k + step])
                 for k in range(0, n_trees, step)]
        feature[active], threshold[active], split[active] = (np.concatenate(col) for col in zip(*found))
        levels.append((feature, threshold, counts, split))
        if not split.any():
            break
        node = 2 * node + (x[np.arange(n), feature[rows, node]] > threshold[rows, node])
        under_split = split.repeat(2, axis=1)
    leaves = levels[0][2]  # a leaf fills the slots under it
    for (_, _, _, split), (_, _, counts, _) in zip(levels, levels[1:]):
        leaves = np.where(split.repeat(2, axis=1)[..., None], counts, leaves.repeat(2, axis=1))
    feature, threshold = (np.concatenate(arrays, axis=1)[:, : leaves.shape[1] - 1]
                          for arrays in list(zip(*levels))[:2])
    return ForestModel(feature_set=tuple(feature_set), max_depth=max_depth, feature=feature,
                       threshold=threshold, counts=leaves, seed=seed)


def predict_forest_proba(model: ForestModel, rec: SurvivalRecord) -> np.ndarray:
    """Mean of the per-tree leaf class proportions (short, mid, long), added in tree order."""
    x = np.asarray([rec.feature(name) for name in model.feature_set])
    trees = np.arange(len(model.counts))
    k = np.zeros(len(trees), dtype=np.int64)
    for _ in range(model.counts.shape[1].bit_length() - 1):
        k = 2 * k + 1 + (x[model.feature[trees, k]] > model.threshold[trees, k])
    leaf = model.counts[trees, k - model.feature.shape[1]]
    return (leaf / leaf.sum(axis=1, keepdims=True)).cumsum(axis=0)[-1] / len(trees)


@dataclass
class FusionModel:
    """Regression prediction with a confident-classifier override.

    The forest may move the predicted survival to a fixed day value inside
    its predicted class, but only when it disagrees with the regression's
    class and its probability reaches ``override_prob``.
    """

    ols: OlsModel
    forest: ForestModel
    override_prob: float = SurvivalConfig.override_prob
    override_days: dict[SurvivalClass, float] = field(default_factory=lambda: SurvivalConfig().override_days)
    bins: ClassBins = ClassBins()


def predict_fused(model: FusionModel, rec: SurvivalRecord) -> float:
    days = model.ols.predict(rec)
    linear_class = model.bins.classify(days)
    proba = predict_forest_proba(model.forest, rec)
    rf_idx = int(np.argmax(proba))
    rf_class = CLASS_ORDER[rf_idx]
    if rf_class is not linear_class and proba[rf_idx] >= model.override_prob:
        return float(model.override_days[rf_class])
    return days


def fit_fusion(records, seed: int = 0, **params) -> FusionModel:
    """The fused model of ``SurvivalConfig(**params)``: any of its fields, the rest default."""
    cfg = SurvivalConfig(**params)
    ols = fit_ols(records, feature_set=cfg.ols_features, cap_days=cfg.cap_days)
    forest = fit_forest(records, feature_set=cfg.forest_features, n_trees=cfg.n_trees,
                        max_depth=cfg.max_depth, seed=seed, bins=cfg.bins)
    return FusionModel(ols=ols, forest=forest, override_prob=cfg.override_prob,
                       override_days=dict(cfg.override_days), bins=cfg.bins)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def evaluate_survival(pairs, bins: ClassBins = ClassBins()) -> dict[str, float]:
    """Challenge-style summary over (predicted_days, true_days) pairs.

    Accuracy is over the three class bins; squared errors are on raw days
    (stdSE uses the population convention); Spearman uses average ranks for
    ties.
    """
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
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    if folds > n:
        raise ValueError(f"{n} records are too few for {folds} folds")
    perm = np.random.default_rng([seed]).permutation(n)
    return [np.sort(chunk) for chunk in np.array_split(perm, folds)]


def cross_validate(records, fit_predict, folds: int = 5, seed: int = 0,
                   bins: ClassBins = ClassBins()) -> list[float]:
    """Per-fold class accuracy of ``fit_predict(train) -> (record -> days)``.

    Records are canonically sorted by case_id before the seeded split, so the
    fold assignment is reproducible regardless of input order.
    """
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
MODEL_VERSION = 3


def _preorder(feature, threshold, counts, k=0):
    """The pre-order nodes of a stacked tree from slot ``k``; a subtree of padding is written as its one leaf."""
    if k >= len(feature):
        return [counts[k - len(feature)]]
    left, right = (_preorder(feature, threshold, counts, child) for child in (2 * k + 1, 2 * k + 2))
    if len(left) == 1 and left == right and (feature[k], threshold[k]) == (0, 0.0):
        return left  # padding: split slots (0, 0.0) over leaf slots of one leaf's counts
    return [[feature[k], threshold[k]], *left, *right]


def model_to_json(model: FusionModel) -> str:
    forest = model.forest
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
            "feature_set": list(forest.feature_set),
            "max_depth": forest.max_depth,
            "seed": forest.seed,
            "trees": [_preorder(*tree) for tree in
                      zip(*(a.tolist() for a in (forest.feature, forest.threshold, forest.counts)))],
        },
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def save_model(model: FusionModel, path) -> None:
    write_atomic(path, model_to_json(model).encode())


_NUMBER = (int, float)


def _field(doc: dict, key: str, kind):
    """``doc[key]``, which must be a ``kind``; JSON booleans are not numbers, NaN and Infinity not values."""
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"{key!r} is a {type(value).__name__}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{key!r} is {value}")
    return value


def _feature_set(doc: dict) -> tuple[str, ...]:
    names = tuple(_field(doc, "feature_set", list))
    unknown = [name for name in names if name not in FEATURE_NAMES]
    if unknown:
        raise ValueError(f"unknown feature(s) {unknown}; expected names from {FEATURE_NAMES}")
    return names


def _forest_arrays(trees, n_features: int, max_depth: int):
    """The stacked arrays of version-3 pre-order trees, checked, at the depth of their deepest leaf."""
    check_forest_size(len(trees), max_depth)
    splits, leaves = [], []  # (tree, level-order index, depth, node), in file order
    for t, nodes in enumerate(trees):
        owed = [(0, 0)]  # the (level-order index, depth) of each node still to read, the next last
        for node in nodes:
            if not owed:
                raise ValueError(f"tree {t} has nodes after its last leaf")
            k, depth = owed.pop()
            if depth > max_depth:
                raise ValueError(f"tree {t} reaches depth {depth}, deeper than max_depth {max_depth}")
            if not isinstance(node, list) or len(node) not in (2, 3):
                raise ValueError("each node must be a [feature, threshold] split or a [short, mid, long] leaf")
            (splits if len(node) == 2 else leaves).append((t, k, depth, node))
            owed += [(2 * k + 2, depth + 1), (2 * k + 1, depth + 1)] if len(node) == 2 else []
        if owed:
            raise ValueError(f"tree {t} ends before its last leaf")
    kinds = "split features and leaf counts must be integers, thresholds finite numbers"
    if not {type(v) for *_, node in splits + leaves for v in node} <= {int, float}:
        raise ValueError(kinds)  # a JSON true or false included: numpy would read it as 1 or 0
    feature, threshold = (np.array([node[i] for *_, node in splits]) for i in (0, 1))
    depth, counts = (np.array([leaf[i] for leaf in leaves]) for i in (2, 3))
    if (splits and (feature.dtype.kind != "i" or threshold.dtype.kind not in "if") or counts.dtype.kind != "i"
            or not np.isfinite(threshold).all()):
        raise ValueError(kinds)
    outside = feature[(feature < 0) | (feature >= n_features)]
    if outside.size:
        raise ValueError(f"split feature {outside[0]} is outside a set of {n_features}")
    if (counts < 0).any() or not counts.sum(axis=1).all():
        raise ValueError("leaf counts must be >= 0 with at least one record per leaf")
    d, t, k = depth.max(), *np.array([split[:2] for split in splits], dtype=np.int64).reshape(-1, 2).T
    feature_slots, threshold_slots = np.zeros((2, len(trees), 2**d - 1))
    feature_slots[t, k], threshold_slots[t, k] = feature, threshold
    leaf_slots = np.repeat(counts, 1 << (d - depth), axis=0)  # pre-order meets the leaves left to right
    return feature_slots.astype(np.int64), threshold_slots, leaf_slots.reshape(len(trees), 2**d, 3)


def load_model(path) -> FusionModel:
    try:
        doc = json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: not a JSON survival model: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a survival fusion model file: {path}")
    try:
        bins, ols, forest = (_field(doc, key, dict) for key in ("bins", "ols", "forest"))
        if _field(doc, "version", int) != MODEL_VERSION:
            raise ValueError(f"format version {doc['version']} is not {MODEL_VERSION}; "
                             "retrain the model with survival-train")
        ols_features, forest_features = _feature_set(ols), _feature_set(forest)
        max_depth = _field(forest, "max_depth", int)
        trees = _forest_arrays(_field(forest, "trees", list), len(forest_features), max_depth)
        coefficients = _field(ols, "coefficients", list)
        if len(coefficients) != len(ols_features) + 1:
            raise ValueError(f"{len(coefficients)} OLS coefficients for {len(ols_features)} "
                             "features; expected an intercept plus one per feature")
        days = _field(doc, "override_days", dict)
        cfg = SurvivalConfig(  # the file's values pass the checks a config's values pass
            ols_features=ols_features,
            forest_features=forest_features,
            max_depth=max_depth,
            cap_days=_field(ols, "cap_days", _NUMBER),
            override_prob=_field(doc, "override_prob", _NUMBER),
            override_days={cls: _field(days, cls.value, _NUMBER) for cls in CLASS_ORDER},
            bins=ClassBins(_field(bins, "short_max", _NUMBER), _field(bins, "long_min", _NUMBER)),
        )
        return FusionModel(
            ols=OlsModel(cfg.ols_features, np.asarray(coefficients, dtype=np.float64), cfg.cap_days),
            forest=ForestModel(cfg.forest_features, cfg.max_depth, *trees, seed=_field(forest, "seed", int)),
            override_prob=cfg.override_prob,
            override_days=cfg.override_days,
            bins=cfg.bins,
        )
    except KeyError as exc:
        raise ValueError(f"{path}: survival model lacks key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad survival model: {exc}") from exc

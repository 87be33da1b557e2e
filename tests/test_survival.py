import json

import numpy as np
import pytest

from oracles import TreeNode, v2_tree_arrays, v2_tree_rows, v3_tree_arrays, v3_trees
from uqseg.refine import SegmentationSet
from uqseg.survival import (
    CLASS_ORDER,
    ClassBins,
    ForestModel,
    FusionModel,
    OlsModel,
    SurvivalClass,
    SurvivalConfig,
    SurvivalRecord,
    cross_validate,
    evaluate_survival,
    extract_features,
    fit_forest,
    fit_fusion,
    fit_ols,
    kfold_split,
    load_model,
    model_to_json,
    predict_forest_proba,
    predict_fused,
    save_model,
)
from uqseg.volumes import Mask3D


def rec(case_id, age, n_tumors=1, n_cores=1, survival=None):
    return SurvivalRecord(
        case_id=case_id, age=age, n_tumors=n_tumors, n_cores=n_cores, survival_days=survival
    )


def first_split(doc):
    """The ``forest.splits`` entry, ``[feature, threshold]``, of the first split node in a model JSON document."""
    return doc["forest"]["splits"][next(node for nodes in doc["forest"]["trees"] for node in nodes
                                        if type(node) is int)]


def first_leaves(doc):
    """The ``[short, mid, long]`` leaf nodes of the first tree, in pre-order, in a model JSON document."""
    return [node for node in doc["forest"]["trees"][0] if isinstance(node, list)]


def full_splits(doc):
    """The trees of a model JSON document with each split index replaced by its ``[feature, threshold]`` entry."""
    table = doc["forest"]["splits"]
    return [[table[node] if type(node) is int else node for node in nodes] for nodes in doc["forest"]["trees"]]


def as_version_3(doc):
    """Rewrite a model JSON document as the version-3 file of the same model: each split node written in full."""
    doc["forest"]["trees"] = full_splits(doc)
    del doc["forest"]["splits"]
    doc["version"] = 3


NODE = r"each node must be a \[short, mid, long\] leaf or a forest.splits index"


class TestSurvivalRecord:
    @pytest.mark.parametrize(
        "field, value",
        [("age", float("nan")), ("age", float("inf")), ("n_tumors", float("nan")),
         ("n_cores", float("inf")), ("survival_days", float("nan")), ("survival_days", -float("inf"))],
    )
    def test_non_finite_values_name_case(self, field, value):
        values = {"case_id": "case-7", "age": 60.0, "n_tumors": 1, "n_cores": 1, "survival_days": 300.0}
        values[field] = value
        with pytest.raises(ValueError, match=r"must be finite \(case-7\)"):
            SurvivalRecord(**values)

    def test_unknown_survival_is_allowed(self):
        assert rec("case-8", 60.0).survival_days is None


class TestClassBins:
    def test_boundaries(self):
        bins = ClassBins()
        assert bins.classify(299.9) is SurvivalClass.SHORT
        assert bins.classify(300.0) is SurvivalClass.MID
        assert bins.classify(450.0) is SurvivalClass.MID
        assert bins.classify(450.1) is SurvivalClass.LONG

    def test_partition(self):
        bins = ClassBins()
        rng = np.random.default_rng(0)
        for days in np.concatenate([rng.uniform(0, 1200, 200), [0.0, 300.0, 450.0]]):
            assert sum(bins.classify(days) is cls for cls in SurvivalClass) == 1


class TestExtractFeatures:
    def make_seg(self, wt, tc):
        et = np.zeros_like(wt)
        return SegmentationSet(wt=Mask3D(wt), tc=Mask3D(tc), et=Mask3D(et))

    def test_empty_masks(self):
        empty = np.zeros((6, 6, 6), dtype=bool)
        features = extract_features(self.make_seg(empty, empty), age=60.0, case_id="c0")
        assert features.n_tumors == 0 and features.n_cores == 0

    def test_single_solid_region(self):
        wt = np.zeros((6, 6, 6), dtype=bool)
        wt[1:5, 1:5, 1:5] = True
        tc = np.zeros_like(wt)
        tc[2:4, 2:4, 2:4] = True
        features = extract_features(self.make_seg(wt, tc), age=60.0)
        assert (features.n_tumors, features.n_cores) == (1, 1)

    def test_two_blobs_one_core(self):
        wt = np.zeros((12, 6, 6), dtype=bool)
        wt[0:3, 1:4, 1:4] = True
        wt[8:11, 1:4, 1:4] = True
        tc = np.zeros_like(wt)
        tc[1, 2, 2] = True
        features = extract_features(self.make_seg(wt, tc), age=55.0)
        assert (features.n_tumors, features.n_cores) == (2, 1)


class TestFitOls:
    def test_recovers_planted_model(self):
        # ages >= 50 keep every target at or below the 1000-day cap
        rng = np.random.default_rng(1)
        records = [
            rec(f"c{i}", age, survival=2000.0 - 20.0 * age)
            for i, age in enumerate(rng.uniform(50.0, 90.0, 40))
        ]
        model = fit_ols(records, feature_set=("age",))
        assert model.coefficients[0] == pytest.approx(2000.0, rel=1e-6)
        assert model.coefficients[1] == pytest.approx(-20.0, rel=1e-6)

    def test_capping_before_fit(self):
        records = [rec("a", 50.0, survival=1500.0), rec("b", 70.0, survival=900.0)]
        model = fit_ols(records, feature_set=("age",))
        # the 1500-day case enters the fit as 1000
        assert model.predict(rec("x", 50.0)) == pytest.approx(1000.0)
        assert model.coefficients[1] == pytest.approx((900.0 - 1000.0) / 20.0)

    def test_constant_target(self):
        records = [rec(f"c{i}", 40.0 + i, survival=500.0) for i in range(5)]
        model = fit_ols(records, feature_set=("age",))
        assert model.coefficients[1] == pytest.approx(0.0, abs=1e-9)
        assert model.predict(rec("x", 77.0)) == pytest.approx(500.0)

    def test_too_few_records(self):
        with pytest.raises(ValueError, match="at least"):
            fit_ols([rec("a", 50.0, survival=100.0)], feature_set=("age",))

    def test_unlabeled_record_rejected(self):
        with pytest.raises(ValueError, match="survival_days"):
            fit_ols([rec("a", 50.0, survival=100.0), rec("b", 60.0)], feature_set=("age",))

    def test_prediction_clipped_to_zero_and_cap(self):
        for fitted, clipped in ((-50.0, 0.0), (400.0, 400.0), (5000.0, 1000.0)):
            assert constant_ols(fitted).predict(rec("x", 60.0)) == clipped
        model = OlsModel(feature_set=(), coefficients=np.array([5000.0]), cap_days=700.0)
        assert model.predict(rec("x", 60.0)) == 700.0


def separable_records(n_per_class=8):
    """Age below 60 marks short survivors, above 60 long survivors."""
    records = []
    for i in range(n_per_class):
        records.append(rec(f"s{i}", 40.0 + i, survival=100.0 + 10 * i))
        records.append(rec(f"l{i}", 65.0 + i, survival=600.0 + 10 * i))
    return records


class TestForest:
    def test_separable_dataset_perfect_accuracy(self):
        records = separable_records()
        model = fit_forest(records, feature_set=("age",), n_trees=101, seed=3)
        bins = ClassBins()
        for r in records:
            proba = predict_forest_proba(model, r)
            got = CLASS_ORDER[int(np.argmax(proba))]
            assert got is bins.classify(r.survival_days)

    def test_depth_limit(self):
        rng = np.random.default_rng(4)
        records = [
            rec(f"c{i}", age, n_tumors=int(t), n_cores=int(c), survival=float(s))
            for i, (age, t, c, s) in enumerate(
                zip(
                    rng.uniform(30, 90, 60),
                    rng.integers(1, 6, 60),
                    rng.integers(1, 4, 60),
                    rng.uniform(50, 1100, 60),
                )
            )
        ]
        for max_depth in (1, 3):
            model = fit_forest(records, n_trees=31, max_depth=max_depth, seed=5)
            leaves = model.counts.shape[1]
            assert leaves <= 2**max_depth and model.feature.shape == (31, leaves - 1)

    def test_deterministic_given_seed_and_data(self):
        records = separable_records()
        a = fit_forest(records, n_trees=51, seed=9)
        b = fit_forest(records, n_trees=51, seed=9)
        assert same_trees(a, b)

    def test_record_order_irrelevant(self):
        records = separable_records()
        shuffled = list(reversed(records))
        a = fit_forest(records, n_trees=21, seed=2)
        b = fit_forest(shuffled, n_trees=21, seed=2)
        assert same_trees(a, b)

    def test_seed_changes_model(self):
        records = separable_records()
        a = fit_forest(records, n_trees=21, seed=1)
        b = fit_forest(records, n_trees=21, seed=2)
        assert not same_trees(a, b)

    def test_single_class_data(self):
        records = [rec(f"c{i}", 40.0 + i, survival=100.0 + i) for i in range(6)]
        model = fit_forest(records, n_trees=11, seed=0)
        assert model.feature.shape == (11, 0)  # every tree is a root leaf
        assert (model.counts[:, 0, 1:] == 0).all()
        proba = predict_forest_proba(model, rec("x", 80.0))
        np.testing.assert_allclose(proba, [1.0, 0.0, 0.0])

    def test_proba_sums_to_one(self):
        records = separable_records()
        model = fit_forest(records, n_trees=33, seed=7)
        for r in records[:5]:
            assert predict_forest_proba(model, r).sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("key, value", [("n_trees", 0), ("n_trees", 2.7), ("n_trees", True),
                                            ("max_depth", -1), ("max_depth", 11), ("max_depth", 2.0)])
    def test_unholdable_size_named(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be an integer in"):
            fit_forest(separable_records(), **{key: value})


def same_trees(a, b):
    return all(np.array_equal(getattr(a, k), getattr(b, k)) for k in ("feature", "threshold", "counts"))


def leaf_forest(counts):
    """Three root-leaf trees with the same class counts."""
    return ForestModel(
        feature_set=("age",),
        max_depth=3,
        feature=np.zeros((3, 0), dtype=np.int64),
        threshold=np.zeros((3, 0)),
        counts=np.array([[counts]] * 3),
    )


def constant_ols(value):
    return OlsModel(feature_set=(), coefficients=np.array([float(value)]))


class TestFusion:
    def test_confident_disagreement_overrides(self):
        model = FusionModel(ols=constant_ols(400.0), forest=leaf_forest((6, 3, 1)))
        assert predict_fused(model, rec("x", 60.0)) == 299.0

    def test_agreement_keeps_regression(self):
        model = FusionModel(ols=constant_ols(200.0), forest=leaf_forest((18, 1, 1)))
        assert predict_fused(model, rec("x", 60.0)) == 200.0

    def test_unconfident_disagreement_ignored(self):
        # forest argmax is Long at 0.45 < 0.5: not confident enough to override
        model = FusionModel(ols=constant_ols(400.0), forest=leaf_forest((3, 8, 9)))
        assert predict_fused(model, rec("x", 60.0)) == 400.0

    def test_prediction_clamped_to_cap(self):
        model = FusionModel(ols=constant_ols(5000.0), forest=leaf_forest((0, 0, 1)))
        assert predict_fused(model, rec("x", 60.0)) == 1000.0
        model = FusionModel(ols=constant_ols(-50.0), forest=leaf_forest((1, 0, 0)))
        assert predict_fused(model, rec("x", 60.0)) == 0.0


class TestSurvivalConfig:
    def test_fit_fusion_takes_the_config_fields(self):
        cfg = SurvivalConfig(n_trees=21, cap_days=800.0, override_prob=0.7)
        by_config = model_to_json(fit_fusion(separable_records(), seed=4, **vars(cfg)))
        assert by_config == model_to_json(fit_fusion(separable_records(), seed=4, n_trees=21, cap_days=800.0,
                                                     override_prob=0.7))
        assert json.loads(by_config)["ols"]["cap_days"] == 800.0

    @pytest.mark.parametrize("params, message", [
        ({"cap_days": -5.0}, r"^cap_days must be > 0, got -5.0$"),
        ({"cap_days": 0}, r"^cap_days must be > 0, got 0$"),
        ({"override_prob": 7.0}, r"^override_prob must be in \[0, 1\], got 7.0$"),
        ({"override_prob": -0.1}, r"^override_prob must be in \[0, 1\], got -0.1$"),
        ({"override_days": {SurvivalClass.SHORT: 350.0, SurvivalClass.MID: 375.0, SurvivalClass.LONG: 451.0}},
         r"^override value 350.0 for short falls outside its own class bin$"),  # not a short-class value
    ])
    def test_unusable_values_refused(self, params, message):
        with pytest.raises(ValueError, match=message):
            SurvivalConfig(**params)
        with pytest.raises(ValueError, match=message):
            fit_fusion(separable_records(), n_trees=3, **params)

    def test_unknown_parameter_refused(self):
        with pytest.raises(TypeError, match="n_tree"):
            fit_fusion(separable_records(), n_tree=3)


class TestEvaluateSurvival:
    def test_perfect_predictions(self):
        pairs = [(100.0, 100.0), (400.0, 400.0), (800.0, 800.0)]
        result = evaluate_survival(pairs)
        assert result["accuracy"] == 1.0
        assert result["mse"] == 0.0
        assert result["spearman_r"] == pytest.approx(1.0)

    def test_reversed_ranking(self):
        truths = [100.0, 200.0, 300.0, 400.0]
        preds = list(reversed(truths))
        result = evaluate_survival(list(zip(preds, truths)))
        assert result["spearman_r"] == pytest.approx(-1.0)

    def test_two_case_errors(self):
        result = evaluate_survival([(100.0, 100.0), (500.0, 400.0)])
        assert result["mse"] == pytest.approx(5000.0)
        assert result["median_se"] == pytest.approx(5000.0)
        assert result["std_se"] == pytest.approx(5000.0)  # population std of {0, 10000}
        assert result["accuracy"] == 0.5  # 100 matches Short, 500 (Long) misses 400 (Mid)

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate_survival([])

    def test_spearman_matches_scipy_with_ties(self):
        from scipy import stats

        for seed in range(60):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 40))
            pred = rng.integers(0, 6, n) * 100.0 if seed % 2 else rng.random(n) * 1000.0
            true = rng.integers(0, 4, n) * 250.0
            got = evaluate_survival(list(zip(pred, true)))["spearman_r"]
            assert got == stats.spearmanr(pred, true).statistic, f"seed {seed}"

    def test_spearman_undefined_is_nan(self):
        assert np.isnan(evaluate_survival([(100.0, 200.0)])["spearman_r"])
        assert np.isnan(evaluate_survival([(100.0, 200.0), (100.0, 300.0)])["spearman_r"])
        assert np.isnan(evaluate_survival([(100.0, 200.0), (400.0, 200.0)])["spearman_r"])


class TestCrossValidation:
    def test_fold_assignment_deterministic(self):
        a = kfold_split(23, 5, seed=11)
        b = kfold_split(23, 5, seed=11)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)
        together = np.concatenate(a)
        assert sorted(together.tolist()) == list(range(23))

    def test_different_seed_changes_folds(self):
        a = kfold_split(23, 5, seed=1)
        b = kfold_split(23, 5, seed=2)
        assert any(not np.array_equal(fa, fb) for fa, fb in zip(a, b))

    def test_too_few_records_for_folds_names_both_counts(self):
        with pytest.raises(ValueError, match="^3 records are too few for 5 folds$"):
            kfold_split(3, 5, seed=0)
        with pytest.raises(ValueError, match="^0 records are too few for 5 folds$"):
            cross_validate([], lambda train: None, folds=5)
        with pytest.raises(ValueError, match="^folds must be >= 2, got 1$"):
            kfold_split(10, 1, seed=0)

    def test_cross_validate_runs_and_is_deterministic(self):
        records = separable_records(10)

        def fitter(train):
            model = fit_ols(train, feature_set=("age",))
            return lambda r: min(max(model.predict(r), 0.0), 1000.0)

        a = cross_validate(records, fitter, folds=5, seed=3)
        b = cross_validate(records, fitter, folds=5, seed=3)
        assert a == b
        assert len(a) == 5


class TestPersistence:
    def fit_small_fusion(self, seed=5):
        records = separable_records()
        return fit_fusion(records, seed=seed, n_trees=21)

    def test_roundtrip_predictions(self, tmp_path):
        model = self.fit_small_fusion()
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        probe = [rec("x", 45.0), rec("y", 70.0, n_tumors=3)]
        for r in probe:
            assert predict_fused(loaded, r) == predict_fused(model, r)

    def test_identical_bytes_across_fits(self):
        a = model_to_json(self.fit_small_fusion())
        b = model_to_json(self.fit_small_fusion())
        assert a == b

    def test_self_describing(self, tmp_path):
        model = self.fit_small_fusion()
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert doc["format"] == "uqseg-survival-fusion"
        assert doc["forest"]["seed"] == 5
        assert doc["ols"]["feature_set"] == ["age"]

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="not a survival fusion model"):
            load_model(path)

    def test_tree_count_is_the_stored_trees(self, tmp_path):
        """The file holds every field the benchmark's model check reads, in the shape it reads them."""
        model = self.fit_small_fusion()
        doc = json.loads(model_to_json(model))
        assert "n_trees" not in doc["forest"] and len(doc["forest"]["trees"]) == 21
        assert doc["ols"]["feature_set"] == ["age"]
        intercept, slope = doc["ols"]["coefficients"]
        assert [intercept, slope] == model.ols.coefficients.tolist()
        assert doc["ols"]["cap_days"] == model.ols.cap_days == 1000.0
        assert doc["override_days"] == {"short": 299.0, "mid": 375.0, "long": 451.0}
        path = tmp_path / "model.json"
        del doc["forest"]["trees"][3:]
        path.write_text(json.dumps(doc))
        assert load_model(path).forest.counts.shape[0] == 3

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.pop("bins"), "lacks key 'bins'"),
            (lambda d: d["forest"].pop("seed"), "lacks key 'seed'"),
            (lambda d: first_split(d).append(0), r"a \[feature, threshold\] pair"),
            (lambda d: first_leaves(d)[0].append(0), NODE),
            (lambda d: d["forest"]["splits"].__setitem__(0, 7), r"must be a \[feature, threshold\] pair"),
            pytest.param(lambda d: d["forest"]["trees"][0].__setitem__(0, len(d["forest"]["splits"])), NODE,
                         id="index-past-the-table"),
            pytest.param(lambda d: d["forest"]["trees"][0].__setitem__(0, -1), NODE, id="negative-index"),
            pytest.param(lambda d: d["forest"]["trees"][0].__setitem__(0, True), NODE, id="boolean-node"),
            pytest.param(lambda d: d["forest"]["trees"][0].__setitem__(0, list(first_split(d))), NODE,
                         id="feature-threshold-node"),
            pytest.param(lambda d: d["forest"].pop("splits"), "lacks key 'splits'", id="no-split-table"),
            pytest.param(lambda d: d["forest"].update(splits={}), "'splits' is a dict", id="split-table-not-a-list"),
            (lambda d: d["forest"]["trees"][0].pop(), "tree 0 ends before its last leaf"),
            (lambda d: d["forest"]["trees"][0].append([1, 0, 0]), "tree 0 has nodes after its last leaf"),
            (lambda d: d["forest"].update(trees=[]), r"n_trees must be an integer in \[1, inf\], got 0"),
            (lambda d: d["forest"].update(max_depth=0), "reaches depth 1, deeper than max_depth 0"),
            (lambda d: d["forest"].update(max_depth=11), r"max_depth must be an integer in \[0, 10\]"),
            (lambda d: d["ols"].update(feature_set="age"), "'feature_set' is a str"),
            (lambda d: d.update(override_prob=True), "'override_prob' is a bool"),
            (lambda d: d.update(version=2.0), "'version' is a float"),
            (lambda d: d.update(version=1, forest={**d["forest"], "n_trees": 1,
                                                   "trees": [TreeNode((3, 1, 0)).to_dict()]}),
             "format version 1 is not 4; retrain the model with survival-train"),
            (lambda d: d.update(version=2, forest={**d["forest"], "trees": v2_tree_rows(
                np.zeros((1, 0), dtype=np.int64), np.zeros((1, 0)), np.array([[[3, 1, 0]]]))}),
             "format version 2 is not 4; retrain the model with survival-train"),
            pytest.param(as_version_3, "format version 3 is not 4; retrain the model with survival-train",
                         id="version-3"),
            (lambda d: d["ols"].update(coefficients=["x", "y"]), "bad survival model"),
            (lambda d: d.update(forest=[]), "'forest' is a list"),
            (lambda d: d["forest"].update(feature_set=["agee", "n_tumors", "n_cores"]),
             r"unknown feature\(s\) \['agee'\]"),
            (lambda d: d["ols"].update(feature_set=["agee"]), r"unknown feature\(s\) \['agee'\]"),
            (lambda d: first_split(d).__setitem__(0, 3), "split feature 3 is outside a set of 3"),
            (lambda d: first_split(d).__setitem__(0, -1), "split feature -1 is outside a set of 3"),
            (lambda d: first_split(d).__setitem__(0, 1.5), "split features and leaf counts must be integers"),
            (lambda d: first_split(d).__setitem__(1, "x"), "thresholds finite numbers"),
            pytest.param(lambda d: first_split(d).__setitem__(0, True), "must be integers, thresholds finite",
                         id="boolean-split-feature"),
            pytest.param(lambda d: first_leaves(d)[0].__setitem__(0, False), "must be integers, thresholds finite",
                         id="boolean-leaf-count"),
            pytest.param(lambda d: first_split(d).__setitem__(1, float("nan")),
                         "thresholds finite numbers", id="nan-threshold"),
            pytest.param(lambda d: first_split(d).__setitem__(1, -float("inf")),
                         "thresholds finite numbers", id="infinite-threshold"),
            (lambda d: first_leaves(d)[0].__setitem__(1, 0.5), "leaf counts must be integers"),
            (lambda d: first_leaves(d)[0].__setitem__(1, -4), "leaf counts must be >= 0"),
            (lambda d: first_leaves(d)[0].__setitem__(slice(None), [0, 0, 0]), "at least one record per leaf"),
            (lambda d: d["ols"]["coefficients"].append(1.0), "3 OLS coefficients for 1 features"),
            (lambda d: d["ols"]["coefficients"].pop(), "1 OLS coefficients for 1 features"),
            pytest.param(lambda d: d["override_days"].update(mid=float("nan")), "'mid' is nan", id="nan-override-days"),
            pytest.param(lambda d: d["ols"].update(cap_days=float("inf")), "'cap_days' is inf", id="infinite-cap"),
            pytest.param(lambda d: d["ols"].update(cap_days=-5), "bad survival model: cap_days must be > 0, got -5$",
                         id="negative-cap"),
            pytest.param(lambda d: d.update(override_prob=7),
                         r"bad survival model: override_prob must be in \[0, 1\], got 7$", id="override-prob-above-1"),
        ],
    )
    def test_malformed_model_names_path(self, tmp_path, edit, message):
        doc = json.loads(model_to_json(self.fit_small_fusion()))
        edit(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"model.json: .*{message}"):
            load_model(path)

    def test_format_only_file_names_path(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "uqseg-survival-fusion"}')
        with pytest.raises(ValueError, match="model.json: survival model lacks key 'bins'"):
            load_model(path)


def tied_records(rng, n):
    """``n`` labelled records whose features repeat (tied values) and whose classes are often one (pure nodes)."""
    classes = rng.choice([100.0, 375.0, 700.0], size=n, p=rng.dirichlet([0.4, 0.4, 0.4]))
    return [rec(f"r{i:02d}", float(rng.integers(40, 46)), int(rng.integers(0, 3)), int(rng.integers(0, 2)),
                survival=float(days)) for i, days in enumerate(classes)]


def forest_arrays(forest):
    return forest.feature, forest.threshold, forest.counts


def bit_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# a version-2 file's trees, as the v2 writer saved fit_fusion(PARENT_RECORDS, seed=2, n_trees=3, max_depth=2)
PARENT_V2_TREES = json.loads(
    "[[[0,0,0],[52.5,45.0,0.0],[[2,0,0],[0,0,2],[4,0,0],[4,0,0]]],"
    "[[1,0,0],[1.5,45.0,0.0],[[1,0,0],[1,0,4],[0,2,0],[0,2,0]]],"
    "[[0,1,0],[67.5,2.5,0.0],[[0,3,1],[2,0,0],[2,0,0],[2,0,0]]]]"
)
# the version-3 file's trees of the same fit: each right branch is one leaf
PARENT_V3_TREES = [
    [[0, 52.5], [0, 45.0], [2, 0, 0], [0, 0, 2], [4, 0, 0]],
    [[1, 1.5], [0, 45.0], [1, 0, 0], [1, 0, 4], [0, 2, 0]],
    [[0, 67.5], [1, 2.5], [0, 3, 1], [2, 0, 0], [2, 0, 0]],
]
PARENT_RECORDS = [rec(f"c{i}", float(age), tumors, 1, survival=float(days)) for i, (age, tumors, days) in enumerate(
    [(40, 1, 100), (45, 2, 350), (50, 1, 600), (55, 3, 120), (60, 1, 400), (65, 2, 700), (70, 1, 200), (75, 1, 500)])]


class TestFormatV4:
    def test_seeded_round_trips_are_bit_exact(self, tmp_path):
        """Depths 0-4, 1-50 trees, tied features and pure nodes: the file holds the fitted arrays exactly."""
        depths = set()
        for seed in range(40):
            rng = np.random.default_rng(seed)
            model = fit_fusion(tied_records(rng, int(rng.integers(2, 40))), seed=seed,
                               n_trees=int(rng.integers(1, 51)), max_depth=seed % 5)
            text = model_to_json(model)
            path = tmp_path / f"model-{seed}.json"
            path.write_text(text)
            loaded = load_model(path)
            assert all(map(bit_equal, forest_arrays(loaded.forest), forest_arrays(model.forest))), seed
            assert model_to_json(loaded) == text, seed
            doc = json.loads(text)
            table = [tuple(pair) for pair in doc["forest"]["splits"]]
            assert table == sorted(set(table)), seed  # sorted and distinct
            used = {node for nodes in doc["forest"]["trees"] for node in nodes if type(node) is int}
            assert used == set(range(len(table))), seed  # every entry named by a split node
            v3 = v3_trees(*forest_arrays(model.forest))  # the version-3 file of the same fit
            assert full_splits(doc) == v3, seed
            v2 = v2_tree_rows(*forest_arrays(model.forest))  # ... and the version-2 file
            for former in (v3_tree_arrays(json.loads(json.dumps(v3)), 3, model.forest.max_depth),
                           v2_tree_arrays(json.loads(json.dumps(v2)), 3, model.forest.max_depth)):
                assert all(map(bit_equal, former, forest_arrays(loaded.forest))), seed
            depths.add(model.forest.counts.shape[1].bit_length() - 1)
        assert depths == {0, 1, 2, 3, 4}

    def test_parent_file_reads_as_the_new_file(self, tmp_path):
        model = fit_fusion(PARENT_RECORDS, seed=2, n_trees=3, max_depth=2)
        assert v2_tree_rows(*forest_arrays(model.forest)) == PARENT_V2_TREES
        assert v3_trees(*forest_arrays(model.forest)) == PARENT_V3_TREES
        path = tmp_path / "model.json"
        save_model(model, path)
        forest = json.loads(path.read_text())["forest"]
        assert forest["splits"] == [[0, 45.0], [0, 52.5], [0, 67.5], [1, 1.5], [1, 2.5]]
        assert forest["trees"] == [
            [1, 0, [2, 0, 0], [0, 0, 2], [4, 0, 0]],
            [3, 0, [1, 0, 0], [1, 0, 4], [0, 2, 0]],
            [2, 4, [0, 3, 1], [2, 0, 0], [2, 0, 0]],
        ]
        loaded = forest_arrays(load_model(path).forest)
        for parent in (v2_tree_arrays(PARENT_V2_TREES, 3, 2), v3_tree_arrays(PARENT_V3_TREES, 3, 2)):
            assert all(map(bit_equal, parent, loaded))

    def test_explicit_padding_loads_as_its_collapsed_form(self, tmp_path):
        splits = [[0, 0.0], [0, 50.0], [0, 60.0], [1, 1.5]]
        deep = [3, 1, [4, 0, 0], [0, 0, 2], [0, 1, 3]]
        padded = [2, 0, [5, 0, 0], [5, 0, 0], [0, 3, 1]]
        collapsed = [2, [5, 0, 0], [0, 3, 1]]
        zero_split = [0, [1, 0, 0], [0, 0, 1]]  # a (0, 0.0) split over two different leaves is no padding
        doc = json.loads(model_to_json(fit_fusion(separable_records(), n_trees=3)))
        models = {}
        for name, tree in (("padded", padded), ("collapsed", collapsed)):
            doc["forest"].update(splits=splits, trees=[deep, tree, zero_split], max_depth=2)
            (tmp_path / name).write_text(json.dumps(doc))
            models[name] = load_model(tmp_path / name)
            v3 = v3_tree_arrays(full_splits(doc), 3, 2)  # the same trees in the version-3 file
            assert all(map(bit_equal, v3, forest_arrays(models[name].forest)))
        assert all(map(bit_equal, *(forest_arrays(m.forest) for m in models.values())))
        assert models["padded"].forest.threshold[1].tolist() == [60.0, 0.0, 0.0]
        forest = json.loads(model_to_json(models["padded"]))["forest"]
        assert (forest["splits"], forest["trees"]) == (splits, [deep, collapsed, zero_split])
        for age in (45.0, 55.0, 65.0):
            for tumors in (1, 2):
                probe = rec("x", age, n_tumors=tumors)
                assert (predict_forest_proba(models["padded"].forest, probe).tolist()
                        == predict_forest_proba(models["collapsed"].forest, probe).tolist())
        # without the zero split, (0, 0.0) is padding only and leaves the table
        doc["forest"].update(splits=splits, trees=[deep, padded])
        (tmp_path / "no-zero-split").write_text(json.dumps(doc))
        forest = json.loads(model_to_json(load_model(tmp_path / "no-zero-split")))["forest"]
        assert forest["splits"] == splits[1:]
        assert forest["trees"] == [[2, 0, [4, 0, 0], [0, 0, 2], [0, 1, 3]], [1, [5, 0, 0], [0, 3, 1]]]

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from papuf import DelayParams, Design, Netlist, collect_crps, synthesize_device
from papuf import attack
from papuf.attack import (
    AttackModel,
    FeatureMap,
    compare_designs,
    evaluate_attack,
    fit_logistic,
    load_model,
    save_model,
    train,
)
from papuf.oracle import reference_parity_features
from papuf.seeds import SEED_MASK, derive_seed


@pytest.fixture(scope="module")
def apuf_sets():
    params = DelayParams()
    dev = synthesize_device(params, Netlist(Design.APUF, 64), 11)
    train_set = collect_crps([dev], 80, 1, 128, derive_seed("atk", "train"))
    holdout = collect_crps([dev], 20, 1, 128, derive_seed("atk", "holdout"))
    return train_set, holdout


def _parity_columns(challenges):
    """The parity features of the attack's design matrix, its bias column dropped."""
    return attack._design(challenges, "parity")[:, :-1]


def test_parity_features_all_zero_challenge():
    feats = _parity_columns(np.zeros((1, 8), dtype=np.uint8))
    assert feats.shape == (1, 9)
    assert np.all(feats == 1.0)


def test_parity_features_width_one():
    feats = _parity_columns(np.array([[1]], dtype=np.uint8))
    assert np.array_equal(feats[0], np.array([-1.0, 1.0]))


def test_parity_features_flip_sign_structure():
    rng = np.random.default_rng(0)
    for _ in range(50):
        challenge = rng.integers(0, 2, size=(1, 16), dtype=np.uint8)
        j = int(rng.integers(16))
        flipped = challenge.copy()
        flipped[0, j] ^= 1
        a = _parity_columns(challenge)[0]
        b = _parity_columns(flipped)[0]
        assert np.array_equal(b[: j + 1], -a[: j + 1])
        assert np.array_equal(b[j + 1 :], a[j + 1 :])


def test_parity_features_injective_on_challenges():
    rng = np.random.default_rng(1)
    challenges = rng.integers(0, 2, size=(200, 12), dtype=np.uint8)
    feats = _parity_columns(challenges)
    assert np.all(np.abs(feats) == 1.0)
    # consecutive-ratio reconstruction: c_j determined by phi_j / phi_{j+1}
    recovered = (feats[:, :-1] * feats[:, 1:] < 0).astype(np.uint8)
    assert np.array_equal(recovered, challenges)


@settings(max_examples=60, deadline=None)
@given(stages=st.integers(1, 130), rows=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
@example(stages=63, rows=40, seed=1)
@example(stages=64, rows=40, seed=2)
@example(stages=65, rows=40, seed=3)
@example(stages=127, rows=40, seed=4)
@example(stages=128, rows=40, seed=5)
@example(stages=129, rows=40, seed=6)
def test_parity_features_equal_the_float_products(stages, rows, seed):
    # widths past 64 carry each word's parity into the words before it
    rng = np.random.default_rng(seed)
    challenges = rng.integers(0, 2, size=(rows, stages), dtype=np.uint8)
    challenges[: rows // 4] = 1  # all-ones rows flip the sign at every stage
    feats = _parity_columns(challenges)
    assert np.array_equal(feats, reference_parity_features(challenges))
    design = attack._design(challenges, "parity")
    assert design.flags.c_contiguous and design.dtype == np.float64
    assert np.array_equal(design[:, -1], np.ones(rows))


@pytest.mark.parametrize("kind", ["parity", "raw_bits"])
def test_fit_equals_lbfgs_on_the_float_design(apuf_sets, kind):
    # the design the fit replaced: float features, a ones column, rows gathered by the permutation
    x, y = apuf_sets[0].flat_crps()
    model = fit_logistic(x, y, FeatureMap(kind, 64), seed=3)
    feats = reference_parity_features(x) if kind == "parity" else 1.0 - 2.0 * x.astype(np.float64)
    design = np.column_stack([feats, np.ones(len(y))])
    order = np.random.default_rng(3 & SEED_MASK).permutation(len(y))
    split = int(round(attack.TRAIN_FRACTION * len(y)))
    xt, yt = design[order[:split]], y[order[:split]].astype(np.float64)

    def objective(weights):
        scores = xt @ weights
        loss = np.mean(np.logaddexp(0.0, scores) - yt * scores) + 0.5 * attack.L2 * (weights @ weights)
        return float(loss), xt.T @ (attack._sigmoid(scores) - yt) / xt.shape[0] + attack.L2 * weights

    weights, losses, evaluations = attack._lbfgs(objective, np.zeros(design.shape[1]), attack.MAX_ITERATIONS)
    assert np.array_equal(model.weights, weights)
    assert np.array_equal(model.metadata["losses"], losses) and model.metadata["epochs"] == evaluations
    val_pred = (design[order[split:]] @ weights > 0).astype(np.uint8)
    assert model.metadata["validation_accuracy"] == float((val_pred == y[order[split:]]).mean() * 100.0)
    assert np.array_equal(model.predict(x[order[split:]]), val_pred)


def test_non_binary_challenge_bits_are_rejected():
    challenges = np.zeros((120, 8), dtype=np.uint8)
    challenges[5, 3] = 2
    labels = np.zeros(120, dtype=np.uint8)
    for kind in ("parity", "raw_bits"):
        feature_map = FeatureMap(kind, 8)
        model = AttackModel(weights=np.ones(feature_map.dimension + 1), feature_map=feature_map)
        with pytest.raises(ValueError, match="0 and 1"):
            model.predict(challenges)
        with pytest.raises(ValueError, match="0 and 1"):
            fit_logistic(challenges, labels, feature_map, seed=0)


def test_fit_rejects_challenges_of_another_stage_count():
    challenges = np.random.default_rng(2).integers(0, 2, size=(120, 16), dtype=np.uint8)
    labels = challenges[:, 0]
    for kind in ("parity", "raw_bits"):
        with pytest.raises(ValueError, match="challenges of 16 stages do not match a feature map of 64"):
            fit_logistic(challenges, labels, FeatureMap(kind, 64), seed=0)


def test_feature_map_dimensions():
    assert FeatureMap("parity", 64).dimension == 65
    assert FeatureMap("raw_bits", 64).dimension == 64
    with pytest.raises(ValueError):
        FeatureMap("quadratic", 64)


def test_training_is_deterministic(apuf_sets):
    train_set, _ = apuf_sets
    a = train(train_set, seed=3)
    b = train(train_set, seed=3)
    assert np.array_equal(a.weights, b.weights)


def test_training_loss_non_increasing_at_default_step(apuf_sets):
    train_set, _ = apuf_sets
    model = train(train_set, seed=0)
    losses = model.metadata["losses"]
    assert all(losses[i + 1] <= losses[i] + 1e-12 for i in range(len(losses) - 1))


def test_lbfgs_reaches_the_minimiser_of_a_convex_quadratic():
    # f(x) = 0.5 x.A.x - b.x with A symmetric positive definite: the minimiser is A^-1 b
    rng = np.random.default_rng(7)
    basis = rng.normal(size=(12, 12))
    a = basis @ basis.T + 0.5 * np.eye(12)
    b = rng.normal(size=12)

    def objective(x):
        return float(0.5 * x @ a @ x - b @ x), a @ x - b

    x, values, evaluations = attack._lbfgs(objective, np.zeros(12), max_iter=500)
    assert np.max(np.abs(objective(x)[1])) <= attack.GRADIENT_TOL
    # |x - x*| <= |gradient| / smallest eigenvalue of A, which is >= 0.5
    assert np.linalg.norm(x - np.linalg.solve(a, b)) <= 2 * np.sqrt(12) * attack.GRADIENT_TOL
    assert all(later < earlier for earlier, later in zip(values, values[1:]))
    assert len(values) <= evaluations < 200


def test_fitted_apuf_model_is_a_stationary_point(apuf_sets):
    # the gradient of the regularised loss, recomputed on the training rows
    train_set, _ = apuf_sets
    model = train(train_set, seed=2)
    x, y = train_set.flat_crps()
    rows = np.random.default_rng(2 & SEED_MASK).permutation(len(y))[: model.metadata["train_records"]]
    design = np.column_stack([reference_parity_features(x[rows]), np.ones(len(rows))])
    prob = 1.0 / (1.0 + np.exp(-(design @ model.weights)))
    gradient = design.T @ (prob - y[rows]) / len(rows) + attack.L2 * model.weights
    assert np.max(np.abs(gradient)) <= attack.GRADIENT_TOL
    assert model.metadata["epochs"] < attack.MAX_ITERATIONS


def test_apuf_attack_reaches_high_accuracy(apuf_sets):
    train_set, holdout = apuf_sets
    model = train(train_set, FeatureMap("parity", 64), seed=0)
    assert evaluate_attack(model, holdout) >= 95.0


def test_train_accuracy_at_least_holdout_on_average(apuf_sets):
    train_set, holdout = apuf_sets
    x_train, y_train = train_set.flat_crps()
    gaps = []
    for seed in range(5):
        model = train(train_set, seed=seed)
        train_acc = float((model.predict(x_train) == y_train).mean() * 100.0)
        gaps.append(train_acc - evaluate_attack(model, holdout))
    assert np.mean(gaps) >= -0.5


def test_synthetic_linear_oracle_learnable():
    rng = np.random.default_rng(42)
    weights = rng.normal(size=65)
    challenges = rng.integers(0, 2, size=(5000, 64), dtype=np.uint8)
    labels = (reference_parity_features(challenges) @ weights > 0).astype(np.uint8)
    model = fit_logistic(challenges, labels, FeatureMap("parity", 64), seed=1)
    assert model.metadata["validation_accuracy"] >= 99.0


def test_constant_response_dataset():
    rng = np.random.default_rng(2)
    challenges = rng.integers(0, 2, size=(400, 16), dtype=np.uint8)
    labels = np.ones(400, dtype=np.uint8)
    model = fit_logistic(challenges, labels, FeatureMap("parity", 16), seed=0)
    assert model.metadata["validation_accuracy"] == 100.0


def test_shuffled_labels_stay_at_chance(apuf_sets):
    train_set, _ = apuf_sets
    x, y = train_set.flat_crps()
    for shuffle_seed in (3, 4):
        shuffled = np.random.default_rng(shuffle_seed).permutation(y)
        model = fit_logistic(x, shuffled, FeatureMap("parity", 64), seed=0)
        assert model.metadata["validation_accuracy"] == pytest.approx(50.0, abs=3.0)


def test_untrained_random_model_at_chance(apuf_sets):
    _, holdout = apuf_sets
    rng = np.random.default_rng(5)
    model = AttackModel(weights=rng.normal(size=66), feature_map=FeatureMap("parity", 64))
    assert evaluate_attack(model, holdout) == pytest.approx(50.0, abs=3.0)


def test_train_requires_enough_records():
    params = DelayParams()
    dev = synthesize_device(params, Netlist(Design.PA_PUF, 16), 3)
    tiny = collect_crps([dev], 2, 1, 8, 1)
    with pytest.raises(ValueError):
        train(tiny)


def test_evaluate_rejects_empty_holdout(apuf_sets):
    train_set, holdout = apuf_sets
    model = train(train_set, seed=0)
    empty = dataclasses.replace(holdout, challenges=holdout.challenges[:0], responses=holdout.responses[:, :0])
    with pytest.raises(ValueError, match="holdout set is empty"):
        evaluate_attack(model, empty)


def test_compare_designs_reports_rows():
    designs = [
        Netlist(Design.APUF, 16),
        Netlist(Design.PA_PUF, 16),
        Netlist(Design.FF_PA_PUF, 16, ((4, 8),)),
    ]
    rows = compare_designs(designs, crp_budget=2048, seeds=(0, 1), params=DelayParams())
    assert len(rows) == 6  # three designs x two feature maps
    by_design = {(r.design, r.feature_kind): r for r in rows}
    apuf_row = by_design[(designs[0].describe(), "parity")]
    assert apuf_row.accuracy_mean >= 90.0
    for row in rows:
        assert len(row.accuracies) == 2
        assert 0.0 <= row.accuracy_mean <= 100.0


def test_compare_designs_requires_same_stage_count():
    with pytest.raises(ValueError):
        compare_designs([Netlist(Design.APUF, 16), Netlist(Design.PA_PUF, 32)])


def test_model_file_round_trip(tmp_path, apuf_sets):
    train_set, holdout = apuf_sets
    model = train(train_set, seed=0)
    path = tmp_path / "model.txt"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.weights, model.weights)
    assert loaded.feature_map == model.feature_map
    assert evaluate_attack(loaded, holdout) == evaluate_attack(model, holdout)


def test_model_file_with_a_legacy_learning_rate_still_loads(tmp_path, apuf_sets):
    train_set, _ = apuf_sets
    model = train(train_set, seed=0)
    path = tmp_path / "model.txt"
    save_model(model, path)
    text = path.read_text().replace("\nepochs=", "\nlearning_rate=0.1\nepochs=")
    assert "\nlearning_rate=0.1\n" in text
    path.write_text(text)
    loaded = load_model(path)
    assert np.array_equal(loaded.weights, model.weights)
    assert "learning_rate" not in loaded.metadata

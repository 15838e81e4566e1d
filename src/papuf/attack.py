"""Logistic-regression modeling attacks on simulated CRP datasets.

The classical 2-line chain is linear in the parity feature map, so a
logistic model recovers it from a few thousand CRPs; for the 3-line
designs no linear model is known and the harness simply reports accuracy
(with confidence intervals) under both the parity and raw-bit maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kvfile
from .device import DelayParams, synthesize_device
from .netlist import Netlist
from .response import CrpSet, collect_crps
from .seeds import SEED_MASK, derive_seed


@dataclass(frozen=True)
class FeatureMap:
    """Challenge encoding for the attack model.

    ``parity`` is the additive-delay feature vector (dimension stages + 1);
    ``raw_bits`` feeds the challenge bits directly as +/-1 (dimension
    stages).
    """

    kind: str
    stages: int

    def __post_init__(self):
        if self.kind not in ("parity", "raw_bits"):
            raise ValueError(f"unknown feature map {self.kind!r}")

    @property
    def dimension(self) -> int:
        return self.stages + 1 if self.kind == "parity" else self.stages

    def apply(self, challenges: np.ndarray) -> np.ndarray:
        if self.kind == "parity":
            return parity_features(challenges)
        return 1.0 - 2.0 * np.asarray(challenges, dtype=np.float64)


def parity_features(challenges: np.ndarray) -> np.ndarray:
    """Signed suffix products: feature i = prod_{j >= i} (1 - 2 c_j).

    The last feature is the empty product, identically +1, so the output
    has stages + 1 columns with values in {-1, +1}.
    """
    signs = 1.0 - 2.0 * np.atleast_2d(np.asarray(challenges, dtype=np.float64))
    n = signs.shape[1]
    out = np.ones((signs.shape[0], n + 1))
    out[:, :n] = np.cumprod(signs[:, ::-1], axis=1)[:, ::-1]
    return out


@dataclass
class TrainParams:
    learning_rate: float = 0.1
    epochs: int = 200
    train_fraction: float = 0.8


@dataclass
class AttackModel:
    """Logistic model: P(bit = 1) = sigmoid(features . weights + bias).

    ``weights`` has feature dimension + 1 entries; the last one is the bias.
    """

    weights: np.ndarray
    feature_map: FeatureMap
    metadata: dict = field(default_factory=dict)

    def predict(self, challenges: np.ndarray) -> np.ndarray:
        feats = self.feature_map.apply(challenges)
        scores = feats @ self.weights[:-1] + self.weights[-1]
        return (scores > 0).astype(np.uint8)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def fit_logistic(
    x: np.ndarray,
    y: np.ndarray,
    feature_map: FeatureMap,
    hyper: TrainParams,
    seed: int,
) -> AttackModel:
    """Full-batch gradient descent on the mean logistic loss.

    Deterministic under seed (used only for the train/validation shuffle);
    the recorded per-epoch losses are non-increasing at the default step
    size.
    """
    feats = feature_map.apply(x)
    labels = np.asarray(y, dtype=np.float64)
    n_records = feats.shape[0]
    order = np.random.default_rng(seed & SEED_MASK).permutation(n_records)
    split = int(round(hyper.train_fraction * n_records))
    train_idx, val_idx = order[:split], order[split:]
    design = np.column_stack([feats, np.ones(n_records)])
    xt, yt = design[train_idx], labels[train_idx]

    weights = np.zeros(design.shape[1])
    losses = []
    for _ in range(hyper.epochs):
        prob = _sigmoid(xt @ weights)
        eps = 1e-12
        losses.append(float(-np.mean(yt * np.log(prob + eps) + (1 - yt) * np.log(1 - prob + eps))))
        gradient = xt.T @ (prob - yt) / xt.shape[0]
        weights = weights - hyper.learning_rate * gradient
    val_acc = float("nan")
    if val_idx.size:
        val_pred = (design[val_idx] @ weights > 0).astype(np.uint8)
        val_acc = float((val_pred == labels[val_idx]).mean() * 100.0)
    model = AttackModel(
        weights=weights,
        feature_map=feature_map,
        metadata={
            "seed": int(seed),
            "epochs": hyper.epochs,
            "learning_rate": hyper.learning_rate,
            "train_fraction": hyper.train_fraction,
            "train_records": int(split),
            "validation_accuracy": val_acc,
            "losses": losses,
        },
    )
    return model


def train(
    crps: CrpSet,
    feature_map: FeatureMap | None = None,
    hyper: TrainParams | None = None,
    seed: int = 0,
    device_index: int = 0,
) -> AttackModel:
    """Fit a logistic model to one device's single-bit CRPs."""
    if feature_map is None:
        feature_map = FeatureMap("parity", crps.netlist.stages)
    if feature_map.stages != crps.netlist.stages:
        raise ValueError("feature map stage count does not match the CRP set")
    x, y = crps.flat_crps(device_index)
    if x.shape[0] < 100:
        raise ValueError(f"need at least 100 CRPs to train, got {x.shape[0]}")
    return fit_logistic(x, y, feature_map, hyper or TrainParams(), seed)


def evaluate_attack(model: AttackModel, holdout: CrpSet, device_index: int = 0) -> float:
    """Percent of correctly predicted response bits on a holdout set."""
    x, y = holdout.flat_crps(device_index)
    if x.shape[0] == 0:
        raise ValueError("holdout set is empty")
    return float((model.predict(x) == y).mean() * 100.0)


@dataclass
class ComparisonRow:
    design: str
    feature_kind: str
    accuracy_mean: float
    accuracy_std: float
    accuracies: tuple[float, ...]


def _attack_dataset(netlist: Netlist, params: DelayParams, crp_budget: int, seed: int) -> tuple[CrpSet, CrpSet]:
    device = synthesize_device(params, netlist, derive_seed(seed, "attack-dev"))
    response_size = 128
    num_challenges = max(1, crp_budget // response_size)
    train_set = collect_crps([device], num_challenges, 1, response_size, derive_seed(seed, "attack-train"))
    holdout = collect_crps(
        [device], max(1, num_challenges // 4), 1, response_size, derive_seed(seed, "attack-holdout")
    )
    return train_set, holdout


def compare_designs(
    designs: list[Netlist],
    crp_budget: int = 10000,
    seeds=(0, 1, 2, 3, 4),
    params: DelayParams | None = None,
    feature_kinds=("parity", "raw_bits"),
    hyper: TrainParams | None = None,
) -> list[ComparisonRow]:
    """Attack every design under an identical CRP budget and feature maps.

    Purely descriptive: rows carry per-seed accuracies plus mean and
    standard deviation, with no pass/fail judgement.
    """
    stage_counts = {netlist.stages for netlist in designs}
    if len(stage_counts) != 1:
        raise ValueError("all compared designs must share one stage count")
    if params is None:
        params = DelayParams()
    rows = []
    for netlist in designs:
        for kind in feature_kinds:
            feature_map = FeatureMap(kind, netlist.stages)
            accs = []
            for seed in seeds:
                train_set, holdout = _attack_dataset(netlist, params, crp_budget, derive_seed(netlist.describe(), seed))
                model = train(train_set, feature_map, hyper, seed=seed)
                accs.append(evaluate_attack(model, holdout))
            rows.append(
                ComparisonRow(
                    design=netlist.describe(),
                    feature_kind=kind,
                    accuracy_mean=float(np.mean(accs)),
                    accuracy_std=float(np.std(accs)),
                    accuracies=tuple(accs),
                )
            )
    return rows


# ---------------------------------------------------------------------------
# model file persistence


# Training metadata a model file records; a key the model lacks is written as 0.
_METADATA = {"seed": int, "epochs": int, "learning_rate": float, "train_fraction": float}


def save_model(model: AttackModel, path, extra_header: dict | None = None) -> None:
    fields = {
        "features": model.feature_map.kind,
        "stages": model.feature_map.stages,
        **{key: model.metadata.get(key, convert()) for key, convert in _METADATA.items()},
        "weights": " ".join(repr(float(w)) for w in model.weights),
    }
    kvfile.write(path, "attack-model", fields, extra_header)


def load_model(path) -> AttackModel:
    schema = {"features": str, "stages": int, **_METADATA,
              "weights": lambda text: np.array([float(v) for v in text.split()])}
    with open(path, encoding="utf-8") as handle:
        fields = kvfile.read(handle, schema)
    feature_map = FeatureMap(fields["features"], fields["stages"])
    if fields["weights"].size != feature_map.dimension + 1:
        raise ValueError(f"{path}: {fields['weights'].size} weights, expected {feature_map.dimension + 1}")
    metadata = {key: fields[key] for key in _METADATA}
    return AttackModel(weights=fields["weights"], feature_map=feature_map, metadata=metadata)

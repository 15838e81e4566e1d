"""Logistic-regression modeling attacks on simulated CRP datasets.

The classical 2-line chain is linear in the parity feature map, so a
logistic model recovers it from a few thousand CRPs.  The model is fitted
by ``_lbfgs``, a small L-BFGS solver, on the mean logistic loss plus a
fixed L2 term; the problem is convex, so one start from zero suffices.
The loss is evaluated as softplus through numpy's vectorised ``exp`` and
``log1p`` (``_softplus``), within a few ulp of ``logaddexp``; the fitted
weights do not move from those of a fit through ``logaddexp``.
The 3-line designs are reported with confidence intervals under both the
parity and raw-bit maps, neither of which can represent them.

Every feature is exactly +1 or -1.  The parity features come from a suffix
XOR of the challenge bits on 64-bit words, and each design matrix, bias
column included, is written once from the uint8 challenge bits
(``_design``); ``oracle.reference_parity_features`` is the float product
it must equal.  The fit and ``AttackModel.predict`` score that one design.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import kvfile
from .bch import as_bits
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
        if self.stages < 1:
            raise ValueError(f"a feature map needs at least one stage, got {self.stages}")

    @property
    def dimension(self) -> int:
        return self.stages + 1 if self.kind == "parity" else self.stages


def _suffix_parity(bits: np.ndarray) -> np.ndarray:
    """(N, stages) uint8: bit i is the XOR of bits i..stages-1 of its row.

    Each row is packed little-endian into 64-bit words, so stage 64k + j is
    bit j of word k.  Six shift-XORs w ^= w >> s (s = 1, 2, ..., 32) give
    every bit the XOR of itself and the higher bits of its word; then each
    word, right to left, is inverted where the words after it hold an odd
    number of ones, which bit 0 of the next word now says.
    """
    rows, stages = bits.shape
    words = -(-stages // 64)
    packed = np.zeros((rows, 8 * words), dtype=np.uint8)
    packed[:, : -(-stages // 8)] = np.packbits(bits, axis=1, bitorder="little")
    w = packed.view("<u8")
    for shift in (1, 2, 4, 8, 16, 32):
        w ^= w >> shift
    for k in range(words - 2, -1, -1):
        w[:, k] ^= np.uint64(0) - (w[:, k + 1] & np.uint64(1))
    return np.unpackbits(packed, axis=1, count=stages, bitorder="little")


def _challenge_bits(challenges, feature_map: FeatureMap) -> np.ndarray:
    """(N, stages) 0/1 bits; other values or column counts are a ``ValueError``."""
    bits = np.atleast_2d(as_bits(challenges, "challenges"))
    if bits.shape[1] != feature_map.stages:
        raise ValueError(f"challenges of {bits.shape[1]} stages do not match a feature map of {feature_map.stages}")
    return bits


def _design(bits: np.ndarray, kind: str) -> np.ndarray:
    """C-contiguous float64 design matrix of (N, stages) 0/1 bits.

    The features come first, then a bias column of ones.  Parity feature i
    is prod_{j >= i} (1 - 2 c_j), the sign of the XOR of bits i.. of the
    challenge (``_suffix_parity``), and the parity map's last feature is
    the empty product, identically +1.  Every value is written once: the
    signs 1 - 2*bit as int8, and ones in the parity map's constant column
    and the bias column.
    """
    bits = np.atleast_2d(bits)
    rows, stages = bits.shape
    signed = _suffix_parity(bits) if kind == "parity" else bits
    out = np.empty((rows, stages + (kind == "parity") + 1))
    out[:, :stages] = 1 - 2 * signed.view(np.int8)
    out[:, stages:] = 1.0
    return out


# The fit's L-BFGS iteration cap, and the share of records it trains on; the
# rest are held out for the validation accuracy.
MAX_ITERATIONS = 200
TRAIN_FRACTION = 0.8
# Weight of the L2 term 0.5 * L2 * |w|^2 added to the mean logistic loss.  On
# separable data the loss alone has no finite minimiser, and the solver
# stops early on a poor-margin hyperplane.
L2 = 1e-4
# The fit stops once max|gradient| of the regularised loss is this small.
GRADIENT_TOL = 1e-6


@dataclass
class AttackModel:
    """Logistic model: P(bit = 1) = sigmoid(features . weights + bias).

    ``weights`` has feature dimension + 1 entries; the last one is the bias.
    """

    weights: np.ndarray
    feature_map: FeatureMap
    metadata: dict = field(default_factory=dict)

    def predict(self, challenges: np.ndarray) -> np.ndarray:
        """0/1 bits of (N, stages) challenge bits, scored as the fit scores its
        validation rows.  Anything other than 0 and 1, or another stage
        count than the model's, is a ``ValueError``."""
        design = _design(_challenge_bits(challenges, self.feature_map), self.feature_map.kind)
        return (design @ self.weights > 0).astype(np.uint8)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _softplus(scores: np.ndarray) -> np.ndarray:
    """log(1 + exp(s)) of each score, as max(s, 0) + log1p(exp(-|s|)).

    This is the branch numpy's ``logaddexp(0.0, s)`` takes, added in the same
    order, but it runs on numpy's vectorised ``exp`` and ``log1p`` loops
    where ``logaddexp`` runs a scalar one; the two agree within a few ulp.
    Every step but the last writes into the one result buffer.
    """
    out = np.abs(scores)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(scores, 0.0)
    return out


def _lbfgs(objective, x: np.ndarray, max_iter: int):
    """Minimise ``objective(x) -> (value, gradient)`` from ``x`` by L-BFGS.

    Two-loop recursion over the last 10 curvature pairs and an Armijo
    backtracking line search from a unit step.  Stops when max|gradient|
    <= GRADIENT_TOL, after ``max_iter`` iterations, or when 30 step
    halvings find no sufficient decrease (the float floor of the value).
    Returns (x, values, evaluations): the value of every accepted iterate,
    which decreases strictly, and the number of objective calls.
    """
    value, grad = objective(x)
    values, evaluations = [value], 1
    pairs = deque(maxlen=10)  # (s, y, 1 / y.s), oldest first
    for _ in range(max_iter):
        if np.max(np.abs(grad)) <= GRADIENT_TOL:
            break
        direction = -grad
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ direction))
            direction = direction - alphas[-1] * y
        if pairs:
            s, y, _ = pairs[-1]
            direction = direction * ((s @ y) / (y @ y))
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            direction = direction + (alpha - rho * (y @ direction)) * s
        slope = grad @ direction
        step = 1.0
        for _ in range(30):
            trial = x + step * direction
            trial_value, trial_grad = objective(trial)
            evaluations += 1
            # as a difference, so that a value equal to the old one never passes
            if value - trial_value >= -1e-4 * step * slope:
                break
            step *= 0.5
        else:
            break
        s, y = trial - x, trial_grad - grad
        if s @ y > 0:
            pairs.append((s, y, 1.0 / (s @ y)))
        x, value, grad = trial, trial_value, trial_grad
        values.append(value)
    return x, values, evaluations


def fit_logistic(
    x: np.ndarray,
    y: np.ndarray,
    feature_map: FeatureMap,
    seed: int,
) -> AttackModel:
    """L-BFGS on the mean logistic loss plus ``0.5 * L2 * |w|^2``.

    ``x`` holds (N, stages) challenge bits and ``y`` N labels; anything
    other than 0 and 1, stages other than ``feature_map.stages`` or another
    label shape is a ``ValueError``.  Deterministic under seed (used only
    for the train/validation shuffle).  ``MAX_ITERATIONS`` caps the
    iterations.  The metadata records the regularised loss of every iterate
    as ``losses`` (non-increasing) and the number of loss-and-gradient
    evaluations, each one pass over the training rows, as ``epochs``.
    The loss goes through ``_softplus`` (``exp`` and ``log1p``): the weights
    and ``epochs`` equal those of a fit through ``logaddexp`` on the
    ``attack`` workload's shapes, and each recorded loss is within a few ulp.
    """
    bits = _challenge_bits(x, feature_map)
    n_records = bits.shape[0]
    labels = as_bits(y, "labels")
    if labels.shape != (n_records,):
        raise ValueError(f"labels must be one bit per challenge row, shape ({n_records},), got shape {labels.shape}")
    order = np.random.default_rng(seed & SEED_MASK).permutation(n_records)
    split = int(round(TRAIN_FRACTION * n_records))
    train_idx, val_idx = order[:split], order[split:]
    # Rows are permuted as uint8 bits; each design is then written once.
    xt, yt = _design(bits[train_idx], feature_map.kind), labels[train_idx].astype(np.float64)

    def objective(weights):
        scores = xt @ weights
        loss = np.mean(_softplus(scores) - yt * scores) + 0.5 * L2 * (weights @ weights)
        return float(loss), xt.T @ (_sigmoid(scores) - yt) / xt.shape[0] + L2 * weights

    weights, losses, evaluations = _lbfgs(objective, np.zeros(xt.shape[1]), MAX_ITERATIONS)
    val_acc = float("nan")
    if val_idx.size:
        val_pred = (_design(bits[val_idx], feature_map.kind) @ weights > 0).astype(np.uint8)
        val_acc = float((val_pred == labels[val_idx]).mean() * 100.0)
    model = AttackModel(
        weights=weights,
        feature_map=feature_map,
        metadata={
            "seed": int(seed),
            "epochs": evaluations,
            "train_fraction": TRAIN_FRACTION,
            "train_records": int(split),
            "validation_accuracy": val_acc,
            "losses": losses,
        },
    )
    return model


def train(
    crps: CrpSet,
    feature_map: FeatureMap | None = None,
    seed: int = 0,
) -> AttackModel:
    """Fit a logistic model to the first device's single-bit CRPs."""
    if feature_map is None:
        feature_map = FeatureMap("parity", crps.netlist.stages)
    if feature_map.stages != crps.netlist.stages:
        raise ValueError("feature map stage count does not match the CRP set")
    x, y = crps.flat_crps()
    if x.shape[0] < 100:
        raise ValueError(f"need at least 100 CRPs to train, got {x.shape[0]}")
    return fit_logistic(x, y, feature_map, seed)


def evaluate_attack(model: AttackModel, holdout: CrpSet) -> float:
    """Percent of correctly predicted response bits on the first device of a holdout set."""
    x, y = holdout.flat_crps()
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
    num_challenges = crp_budget // response_size
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
) -> list[ComparisonRow]:
    """Attack every design under an identical CRP budget and feature maps.

    Purely descriptive: rows carry per-seed accuracies plus mean and
    standard deviation, with no pass/fail judgement.
    """
    if not designs:
        raise ValueError("the attack comparison needs at least one design")
    if crp_budget < 128:
        raise ValueError(f"a CRP budget of {crp_budget} is below one 128-bit response")
    stage_counts = {netlist.stages for netlist in designs}
    if len(stage_counts) != 1:
        raise ValueError("all compared designs must share one stage count")
    if params is None:
        params = DelayParams()
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("the attack comparison needs at least one seed")
    rows = []
    for netlist in designs:
        # One device and CRP set per seed, shared by every feature map.
        datasets = [
            _attack_dataset(netlist, params, crp_budget, derive_seed(netlist.describe(), seed)) for seed in seeds
        ]
        for kind in feature_kinds:
            feature_map = FeatureMap(kind, netlist.stages)
            accs = [
                evaluate_attack(train(train_set, feature_map, seed=seed), holdout)
                for seed, (train_set, holdout) in zip(seeds, datasets)
            ]
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
_METADATA = {"seed": int, "epochs": int, "train_fraction": float}


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
    with kvfile.open_text(path) as handle:
        fields = kvfile.read(handle, schema)
    feature_map = FeatureMap(fields["features"], fields["stages"])
    if fields["weights"].size != feature_map.dimension + 1:
        raise ValueError(f"{path}: {fields['weights'].size} weights, expected {feature_map.dimension + 1}")
    if not np.all(np.isfinite(fields["weights"])):
        raise ValueError(f"{path}: weights must be finite")
    metadata = {key: fields[key] for key in _METADATA}
    return AttackModel(weights=fields["weights"], feature_map=feature_map, metadata=metadata)

"""The four benchmark workloads, run through papuf's public API.

Each workload has ``setup(seed)``, which builds every input from the
benchmark seed (papuf only ever sees the generated values), and
``run(inputs, workdir)``, one timed repetition that returns a ``Rep``:
a SHA-256 digest of everything it produced, its output checks, and the
work it did.  All workloads use the CLI's default delay parameters
(mean 100, sigma_process 5, metastability window 0).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Layer functions are looked up on their modules at call time, so a traced
# run sees the wrappers that perfbench.spans installs there.
from papuf import attack, bch, circuit, cli, device, keyfuzz, metrics, response
from papuf.device import DelayParams
from papuf.netlist import Design, Netlist, default_ff_taps

TARGET_RELIABILITY = 95.37  # the paper's calibrated reliability (C05)


def derive(seed: int, *parts) -> int:
    """A 31-bit input seed from the benchmark seed, independent of papuf.seeds."""
    text = "\x1f".join(str(p) for p in ("papuf-bench", seed) + parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


@dataclass
class Rep:
    digest: str
    checks: list[tuple[str, bool]]
    ops: int  # user-level operations completed (see README)
    crp_bits: int  # response bits simulated
    extra: dict = field(default_factory=dict)


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else str(chunk).encode())
        h.update(b"\x00")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# population: the paper-scale C03/C04 CLI run


POPULATION = dict(devices=50, challenges=500, repetitions=1, bits=128)


def population_setup(seed: int) -> dict:
    p = POPULATION
    gen = [
        "crp", "gen", "--design", "pa-puf", "--stages", "64",
        "--population", str(p["devices"]), "--challenges", str(p["challenges"]),
        "--repetitions", str(p["repetitions"]), "--response-size", str(p["bits"]),
        "--calibrate-target", str(TARGET_RELIABILITY), "--seed", str(derive(seed, "population")),
    ]
    return {"gen": gen}


def population_run(inputs: dict, workdir: Path) -> Rep:
    out = workdir / "population"
    out.mkdir(parents=True, exist_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        gen_rc = cli.main(inputs["gen"] + ["--out-dir", str(out)])
        met_rc = cli.main(["metrics", "--crps", str(out / "crps.csv"), "--out-dir", str(out)])
    names = ["effective-config.kv", "crps.csv", "metrics.kv", "intra_hd_hist.csv", "inter_hd_hist.csv"]
    blobs = [(out / name).read_bytes() if (out / name).exists() else b"" for name in names]
    report = {}
    for line in blobs[2].decode().splitlines():
        if "=" in line and not line.startswith("#"):
            key, value = line.split("=", 1)
            report[key] = value
    uni = float(report.get("uniformity_avg", "nan"))
    uniq = float(report.get("uniqueness", "nan"))
    p = POPULATION
    records = p["devices"] * p["challenges"] * p["repetitions"]
    return Rep(
        digest=_sha(*blobs),
        checks=[
            ("crp_gen_exit_0", gen_rc == 0),
            ("metrics_exit_0", met_rc == 0),
            ("uniformity_in_50pm2.5", abs(uni - 50.0) <= 2.5),
            ("uniqueness_in_50pm2.5", abs(uniq - 50.0) <= 2.5),
        ],
        ops=records,
        crp_bits=records * p["bits"],
        extra={"uniformity_avg": uni, "uniqueness": uniq},
    )


# ---------------------------------------------------------------------------
# keygen: C06-shaped enrolment, 10^4 voted reproductions, 1000 adversarial decodes
#
# The 10^4 reproductions are spread over 100 enrolled challenges (100 each)
# rather than one: how often a voted read exceeds t errors depends strongly
# on the challenge (0% to 10% per challenge on this device model), so with a
# single random challenge the decode work is a property of the seed.
#
# The checks are the decoder's guarantees, which hold on every seed: a read
# within t errors of the enrolled response reproduces the enrolled key, and
# any word that does decode lies within t of the codeword it decodes to.  The
# C06 rates (success >= 99.9%, 1000/1000 explicit failures at weight t + 5)
# are printed, not checked: both are sample outcomes that miss on about one
# seed in ten (a voted read can exceed t errors; a weight-15 word can lie
# within t of another codeword, which bounded-distance decoding must accept).


KEYGEN = dict(votes=11, keys=100, trials=100, adversarial=1000, bits=128, stages=64)


def keygen_setup(seed: int) -> dict:
    k = KEYGEN
    params = DelayParams()
    chip = device.synthesize_device(params, Netlist(Design.PA_PUF, k["stages"]), derive(seed, "keygen-device"))
    code = bch.default_code()
    calibration = metrics.calibrate_noise(TARGET_RELIABILITY, chip, eval_seed=derive(seed, "keygen-cal"))
    chip = chip.with_params(params.with_noise(calibration.sigma_noise))
    rng = np.random.default_rng(derive(seed, "keygen-inputs"))
    challenges = rng.integers(0, 2, size=(k["keys"], k["stages"]), dtype=np.uint8)
    challenges[:, 0] = 1  # the all-zero seed is a fixed point of the LFSR
    # Weight t + 5 error patterns, beyond the code's reach (C06's adversarial reads).
    flips = np.stack([rng.choice(code.n, code.t + 5, replace=False) for _ in range(k["adversarial"])])
    return {
        "device": chip,
        "code": code,
        "challenges": challenges,
        "flips": flips,
        "enroll_seed": derive(seed, "keygen-enroll"),
        "reads_seed": derive(seed, "keygen-reads"),
        "key_seeds": [derive(seed, "keygen-key", i) for i in range(k["keys"])],
    }


def keygen_run(inputs: dict, workdir: Path) -> Rep:
    k = KEYGEN
    chip, code = inputs["device"], inputs["code"]
    keys, trials, votes, bits = k["keys"], k["trials"], k["votes"], k["bits"]
    expanded = response.expand_many(inputs["challenges"], bits).reshape(-1, k["stages"])
    enroll_reads = circuit.repeated_reads(chip, expanded, votes, inputs["enroll_seed"])
    enrolled = (enroll_reads.sum(axis=0) * 2 > votes).astype(np.uint8).reshape(keys, bits)
    enrolment = [keyfuzz.enroll(enrolled[i], code, inputs["key_seeds"][i]) for i in range(keys)]

    reads = circuit.repeated_reads(chip, expanded, votes * trials, inputs["reads_seed"])
    voted = (reads.reshape(trials, votes, keys, bits).sum(axis=1) * 2 > votes).astype(np.uint8)
    del reads
    outcome = np.empty((trials, keys), dtype=np.uint8)  # 0 ok, 1 explicit failure, 2 wrong key
    latency = np.empty((trials, keys))
    wrong = {}
    clock = time.perf_counter
    reproduce = keyfuzz.reproduce
    for t in range(trials):
        for i, (helper, key) in enumerate(enrolment):
            start = clock()
            got = reproduce(voted[t, i], helper)
            latency[t, i] = clock() - start
            if got is None:
                outcome[t, i] = 1
            elif got == key:
                outcome[t, i] = 0
            else:
                outcome[t, i] = 2
                wrong[(t, i)] = got.bits

    adversarial = np.empty(k["adversarial"], dtype=np.uint8)  # 1 explicit failure, 0 decoded
    decoded_in_ball = True
    for j, positions in enumerate(inputs["flips"]):
        i = j % keys
        received = enrolment[i][0].offset ^ enrolled[i, : code.n]
        received[positions] ^= 1
        result = bch.bch_decode(received, code)
        adversarial[j] = result is None
        if result is not None:
            decoded_in_ball &= _within_t(received, result[0], code)

    # Verification, after the work: error weight of each voted read, and every wrong key.
    errors = (voted[:, :, : code.n] != enrolled[None, :, : code.n]).sum(axis=2)
    for t, i in zip(*np.nonzero(outcome == 2)):
        received = enrolment[i][0].offset ^ voted[t, i, : code.n]
        decoded_in_ball &= _within_t(received, wrong[(t, i)], code)
    ok = int((outcome == 0).sum())
    return Rep(
        digest=_sha(
            *(key.hex() + bytes(helper.offset).hex() for helper, key in enrolment),
            outcome.tobytes(),
            adversarial.tobytes(),
        ),
        checks=[
            ("reads_within_t_reproduce_the_key", bool((outcome[errors <= code.t] == 0).all())),
            ("every_decode_within_t_of_its_codeword", bool(decoded_in_ball)),
        ],
        ops=outcome.size,
        crp_bits=votes * (trials + 1) * keys * bits,
        extra={
            "key_p50_ms": float(np.percentile(latency, 50) * 1000.0),
            "key_p99_ms": float(np.percentile(latency, 99) * 1000.0),
            "key_latency_samples": latency.size,
            "key_success_pct": 100.0 * ok / outcome.size,
            "keys_failed_explicitly": int((outcome == 1).sum()),
            "keys_wrong": int((outcome == 2).sum()),
            "adversarial_failed_explicitly": f"{int(adversarial.sum())}/{adversarial.size}",
        },
    )


def _within_t(received: np.ndarray, message: np.ndarray, code) -> bool:
    """True when the decoded message's codeword is within t bits of the word."""
    return int((bch.bch_encode(message, code) != received).sum()) <= code.t


# ---------------------------------------------------------------------------
# attack: compare_designs over APUF, PA-PUF and FF-PA-PUF


ATTACK = dict(stages=64, budget=10_000, seeds=5, kinds=("parity", "raw_bits"))


def attack_setup(seed: int) -> dict:
    stages = ATTACK["stages"]
    designs = [
        Netlist(Design.APUF, stages),
        Netlist(Design.PA_PUF, stages),
        Netlist(Design.FF_PA_PUF, stages, default_ff_taps(stages, 2)),
    ]
    seeds = tuple(derive(seed, "attack", i) for i in range(ATTACK["seeds"]))
    return {"designs": designs, "seeds": seeds, "params": DelayParams()}


def attack_run(inputs: dict, workdir: Path) -> Rep:
    a = ATTACK
    rows = attack.compare_designs(
        inputs["designs"], crp_budget=a["budget"], seeds=inputs["seeds"],
        params=inputs["params"], feature_kinds=a["kinds"],
    )
    design_of = {netlist.describe(): netlist.design.value for netlist in inputs["designs"]}
    apuf = inputs["designs"][0].describe()
    apuf_parity = [r for r in rows if r.design == apuf and r.feature_kind == "parity"]
    accuracies = apuf_parity[0].accuracies if apuf_parity else (float("nan"),) * a["seeds"]
    models = len(rows) * a["seeds"]
    # collect_crps draws budget // 128 training and a quarter as many holdout challenges
    train = a["budget"] // 128
    bits_per_model = (train + max(1, train // 4)) * 128
    return Rep(
        digest=_sha(*(f"{r.design}|{r.feature_kind}|{r.accuracies!r}" for r in rows)),
        checks=[(f"apuf_parity_seed{i}_ge_95pct", acc >= 95.0) for i, acc in enumerate(accuracies)],
        ops=models,
        crp_bits=models * bits_per_model,
        extra={f"mean_accuracy_pct[{design_of[r.design]},{r.feature_kind}]": r.accuracy_mean for r in rows},
    )


# ---------------------------------------------------------------------------
# ff_sweep: the C07 feed-forward tap sweep


FF_SWEEP = dict(stages=16, taps=tuple(range(7)), devices=6, challenges=16, repetitions=5, bits=128, seeds=5)


def ff_sweep_setup(seed: int) -> dict:
    f = FF_SWEEP
    return {
        "base": Netlist(Design.PA_PUF, f["stages"]),
        "params": DelayParams(sigma_noise=2.0),
        "seeds": tuple(derive(seed, "ff-sweep", i) for i in range(f["seeds"])),
    }


def _ranks(values) -> np.ndarray:
    """Average ranks (ties share the mean of their positions)."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    ranks[order] = np.arange(len(values), dtype=float)
    for v in np.unique(values):
        tied = values == v
        ranks[tied] = ranks[tied].mean()
    return ranks


def spearman(x, y) -> float:
    return float(np.corrcoef(_ranks(x), _ranks(y))[0, 1])


def ff_sweep_run(inputs: dict, workdir: Path) -> Rep:
    f = FF_SWEEP
    rows = metrics.sweep_feed_forward(
        inputs["base"], f["taps"], population_size=f["devices"], params=inputs["params"],
        num_challenges=f["challenges"], repetitions=f["repetitions"], response_size=f["bits"],
        seeds=inputs["seeds"],
    )
    rho = spearman([int(r.label) for r in rows], [r.reliability for r in rows])
    points = len(f["taps"]) * f["seeds"]
    return Rep(
        digest=_sha(*(f"{r.label}|{r.uniqueness_by_seed!r}|{r.reliability_by_seed!r}" for r in rows)),
        checks=[
            ("all_tap_counts_reported", len(rows) == len(f["taps"])),
            ("reliability_spearman_negative", rho < 0),
        ],
        ops=points,
        crp_bits=points * f["devices"] * f["challenges"] * f["repetitions"] * f["bits"],
        extra={"spearman_reliability": rho},
    )


# What one operation is, per workload: ops_per_s counts these.
OPS_NAME = {"population": "records", "keygen": "keys", "attack": "models", "ff_sweep": "sweep_points"}

WORKLOADS = {
    "population": (population_setup, population_run),
    "keygen": (keygen_setup, keygen_run),
    "attack": (attack_setup, attack_run),
    "ff_sweep": (ff_sweep_setup, ff_sweep_run),
}

"""Command-line front end for reproducible simulation experiments.

Every emitted file embeds the hash of the effective configuration, and
``report`` refuses to merge files carrying different hashes unless forced.
All randomness flows from explicit --seed flags, so re-running a command
reproduces its outputs byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__, kvfile
from .attack import (
    FeatureMap,
    compare_designs,
    evaluate_attack,
    load_model,
    save_model,
    train,
)
from .bch import BchCode
from .circuit import repeated_reads
from .device import PARAM_SCHEMA, DelayParams, load_device, save_device, synthesize_device, synthesize_population
from .keyfuzz import enroll, load_helper, reproduce, save_helper
from .metrics import calibrate_noise, compute_report, sweep_feed_forward, sweep_response_size
from .netlist import Design, Netlist, default_ff_taps, parse_taps
from .response import (
    RESPONSE_SIZES,
    bits_to_hex,
    collect_crps,
    expand_challenge,
    hex_to_bits,
    load_crps,
    majority_vote,
    random_seed_challenges,
    save_crps,
)
from .seeds import derive_seed

DESIGN_NAMES = {"apuf": Design.APUF, "pa-puf": Design.PA_PUF, "ff-pa-puf": Design.FF_PA_PUF}


def _design(name: str) -> Design:
    if name not in DESIGN_NAMES:
        raise ValueError(f"unknown design {name!r}; expected one of {', '.join(sorted(DESIGN_NAMES))}")
    return DESIGN_NAMES[name]


@dataclass
class ExperimentConfig:
    """Fully serializable description of one experiment run."""

    design: str = "pa-puf"
    stages: int = 64
    ff_taps: str = "default"
    mean_delay: float = 100.0
    sigma_process: float = 5.0
    sigma_noise: float = 0.0
    metastability_window: float = 0.0
    population: int = 3
    challenges: int = 100
    repetitions: int = 11
    response_size: int = 128
    challenge_mode: str = "random"
    seed: int = 0
    challenge_seed: int = -1  # -1: derive from seed

    def netlist(self) -> Netlist:
        design = _design(self.design)
        taps = ()
        if design is Design.FF_PA_PUF:
            taps = default_ff_taps(self.stages, 2) if self.ff_taps == "default" else parse_taps(self.ff_taps)
        return Netlist(design, self.stages, taps)

    def params(self) -> DelayParams:
        return DelayParams(**{name: getattr(self, name) for name in PARAM_SCHEMA})

    def fields(self) -> dict:
        return dict(sorted(asdict(self).items()))

    def config_hash(self) -> str:
        text = "\n".join(f"{key}={value}" for key, value in self.fields().items())
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def _build_config(args) -> ExperimentConfig:
    """Precedence: built-in defaults < config file < explicit flags."""
    config = ExperimentConfig()
    if getattr(args, "config", None):
        schema = {key: (type(value), value) for key, value in asdict(config).items()}
        with open(args.config, encoding="utf-8") as handle:
            loaded = kvfile.read(handle, schema)
        for key in loaded:
            if key not in schema and not key.startswith("#"):
                raise ValueError(f"{args.config}: unknown config key {key!r}")
        config = ExperimentConfig(**{key: loaded[key] for key in schema})
    for key in asdict(config):
        flag = getattr(args, key, None)
        if flag is not None:
            setattr(config, key, flag)
    return config


def _out_dir(args) -> Path:
    out = getattr(args, "out_dir", None) or os.environ.get("PAPUF_OUTDIR") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _echo_config(config: ExperimentConfig, out_dir: Path) -> str:
    chash = config.config_hash()
    header = {"config": chash, "version": __version__}
    kvfile.write(out_dir / "effective-config.kv", "config", config.fields(), header)
    return chash


def _write_kv(path: Path, pairs: dict, chash: str | None, echo: bool = True) -> None:
    fields = {key: f"{value:.6f}" if isinstance(value, float) else value for key, value in sorted(pairs.items())}
    kvfile.write(path, None, fields, {"config": chash} if chash else None)
    if echo:
        for key, value in fields.items():
            print(f"{key}={value}")


def _file_hash(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:12]


def _write_csv(path: Path, header: str, rows: list[str], chash: str | None) -> None:
    kvfile.write(path, None, {}, {"config": chash} if chash else None, marker=header, table=rows)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_device_new(args) -> int:
    config = _build_config(args)
    params, netlist = config.params(), config.netlist()
    out_dir = _out_dir(args)
    chash = _echo_config(config, out_dir)
    device = synthesize_device(params, netlist, config.seed)
    path = Path(args.out) if args.out else out_dir / "device.txt"
    save_device(device, path, extra_header={"config": chash})
    print(f"device_file={path}")
    print(f"device_id={device.device_id}")
    return 0


def _cmd_device_show(args) -> int:
    for key, value in sorted(load_device(args.device).fields().items()):
        print(f"{key}={value}")
    return 0


def _cmd_crp_gen(args) -> int:
    config = _build_config(args)
    params, netlist = config.params(), config.netlist()
    out_dir = _out_dir(args)
    chash = _echo_config(config, out_dir)
    if args.calibrate_target is not None:
        reference = synthesize_device(params, netlist, derive_seed(config.seed, "device", 0))
        result = calibrate_noise(args.calibrate_target, reference, eval_seed=config.seed)
        params = params.with_noise(result.sigma_noise)
        config.sigma_noise = result.sigma_noise
        chash = _echo_config(config, out_dir)
        print(f"calibrated_sigma_noise={result.sigma_noise:.6f}")
    population = synthesize_population(params, netlist, config.population, config.seed)
    master = (
        derive_seed(config.seed, "crp-master")
        if config.challenge_seed < 0
        else derive_seed(config.challenge_seed, "crp-master")
    )
    crps = collect_crps(
        population,
        config.challenges,
        config.repetitions,
        config.response_size,
        master,
        challenge_mode=config.challenge_mode,
    )
    crps.extra_header["config"] = chash
    path = Path(args.out) if args.out else out_dir / "crps.csv"
    save_crps(crps, path)
    print(f"crp_file={path}")
    print(f"records={crps.n_devices * crps.n_challenges * crps.repetitions}")
    return 0


def _cmd_metrics(args) -> int:
    crps = load_crps(args.crps)
    report = compute_report(crps)
    out_dir = _out_dir(args)
    chash = crps.extra_header.get("config")
    _write_kv(out_dir / "metrics.kv", dict(kvfile.split(line, "report") for line in report.report_lines()), chash)
    _write_csv(
        out_dir / "intra_hd_hist.csv",
        "bin,count",
        [f"{b},{c}" for b, c in enumerate(report.intra_hd_histogram)],
        chash,
    )
    _write_csv(
        out_dir / "inter_hd_hist.csv",
        "bin,count",
        [f"{b},{c}" for b, c in enumerate(report.inter_hd_histogram)],
        chash,
    )
    return 0


def _challenge_bits(text: str, stages: int, source: str):
    """A seed challenge given in hex; ``source`` names the option or file key in errors."""
    try:
        return hex_to_bits(text, stages)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def _check_votes(votes: int) -> None:
    """Majority voting needs a positive odd number of reads."""
    if votes < 1 or votes % 2 == 0:
        raise ValueError(f"--votes: expected a positive odd count, got {votes}")


def _cmd_keygen_enroll(args) -> int:
    _check_votes(args.votes)
    device = load_device(args.device)
    code = BchCode.construct(args.code_m, args.code_t)
    if args.challenge_hex:
        seed_chal = _challenge_bits(args.challenge_hex, device.netlist.stages, "--challenge-hex")
    else:
        seed_chal = random_seed_challenges(device.netlist.stages, 1, args.seed)[0]
    expanded = expand_challenge(seed_chal, args.response_size)
    reads = repeated_reads(device, expanded, args.votes, derive_seed(args.seed, "enroll-reads"))
    response = majority_vote(reads)
    helper, key = enroll(response, code, derive_seed(args.seed, "key"))
    out_dir = _out_dir(args)
    helper_path = Path(args.helper_out) if args.helper_out else out_dir / "helper.txt"
    chash = _file_hash(args.device)
    save_helper(
        helper,
        helper_path,
        extra_header={"config": chash, "challenge_hex": bits_to_hex(seed_chal)},
    )
    _write_kv(
        out_dir / "key.txt",
        {"key_hex": key.hex(), "code": f"bch({code.n},{code.k},{code.t})"},
        chash,
        echo=False,
    )
    for line in sorted(
        [f"code=bch({code.n},{code.k},{code.t})", f"helper_file={helper_path}", f"key_hex={key.hex()}"]
    ):
        print(line)
    return 0


def _cmd_keygen_reproduce(args) -> int:
    _check_votes(args.votes)
    device = load_device(args.device)
    helper = load_helper(args.helper)
    with open(args.helper, encoding="utf-8") as handle:
        recorded = kvfile.read(handle, {}).get("# challenge_hex")
    if args.challenge_hex:
        seed_chal = _challenge_bits(args.challenge_hex, device.netlist.stages, "--challenge-hex")
    elif recorded:
        seed_chal = _challenge_bits(recorded, device.netlist.stages, f"{args.helper}: bad '# challenge_hex'")
    else:
        raise ValueError("no challenge: pass --challenge-hex or use helper data that records one")
    expanded = expand_challenge(seed_chal, args.response_size)
    reads = repeated_reads(device, expanded, args.votes, derive_seed(args.seed, "reproduce-reads"))
    response = majority_vote(reads)
    key = reproduce(response, helper)
    if key is None:
        print("error: key reproduction failed (uncorrectable response)", file=sys.stderr)
        return 1
    out_dir = _out_dir(args)
    _write_kv(out_dir / "key.txt", {"key_hex": key.hex()}, _file_hash(args.device))
    return 0


def _cmd_attack_train(args) -> int:
    crps = load_crps(args.crps)
    feature_map = FeatureMap(args.features, crps.netlist.stages)
    model = train(crps, feature_map, seed=args.seed)
    out_dir = _out_dir(args)
    path = Path(args.out) if args.out else out_dir / "model.txt"
    save_model(model, path, extra_header=dict(crps.extra_header))
    print(f"model_file={path}")
    print(f"validation_accuracy={model.metadata['validation_accuracy']:.4f}")
    return 0


def _cmd_attack_eval(args) -> int:
    model = load_model(args.model)
    holdout = load_crps(args.crps)
    accuracy = evaluate_attack(model, holdout)
    print(f"accuracy={accuracy:.4f}")
    return 0


def _cmd_attack_compare(args) -> int:
    stages = args.stages
    designs = []
    for name in args.designs.split(","):
        design = _design(name.strip())
        taps = default_ff_taps(stages, 2) if design is Design.FF_PA_PUF else ()
        designs.append(Netlist(design, stages, taps))
    params = DelayParams(sigma_noise=args.sigma_noise)
    rows = compare_designs(
        designs,
        crp_budget=args.budget,
        seeds=tuple(range(args.seeds)),
        params=params,
    )
    out_dir = _out_dir(args)
    chash = hashlib.sha256(
        f"{args.designs}|{args.stages}|{args.budget}|{args.seeds}|{args.sigma_noise}".encode()
    ).hexdigest()[:12]
    # a feed-forward design lists its taps with commas, so its field is quoted (RFC 4180)
    csv_rows = [
        (f'"{row.design}"' if "," in row.design else row.design)
        + f",{row.feature_kind},{row.accuracy_mean:.4f},{row.accuracy_std:.4f},"
        + ";".join(f"{a:.2f}" for a in row.accuracies)
        for row in rows
    ]
    _write_csv(out_dir / "attack_compare.csv", "design,features,accuracy_mean,accuracy_std,accuracies", csv_rows, chash)
    for row in csv_rows:
        print(row)
    return 0


def _sweep_values(args, stages: int) -> list[int]:
    """The tap counts or response sizes of a sweep, checked before anything is written."""
    flag, text = ("--taps", args.taps) if args.sweep_command == "ff" else ("--sizes", args.sizes)
    try:
        values = [int(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag}: expected comma-separated integers, got {text!r}") from None
    for value in values:
        if args.sweep_command == "ff":
            default_ff_taps(stages, value)
        elif value not in RESPONSE_SIZES:
            raise ValueError(f"response size must be one of {RESPONSE_SIZES}, got {value}")
    return values


def _cmd_sweep(args) -> int:
    config = _build_config(args)
    params, netlist = config.params(), config.netlist()
    values = _sweep_values(args, netlist.stages)
    out_dir = _out_dir(args)
    chash = _echo_config(config, out_dir)
    common = dict(
        population_size=config.population,
        params=params,
        num_challenges=config.challenges,
        repetitions=config.repetitions,
        seeds=tuple(range(args.seeds)),
    )
    if args.sweep_command == "ff":
        rows = sweep_feed_forward(netlist, values, response_size=config.response_size, **common)
        name, label = "sweep_ff.csv", "tap_count"
    else:
        rows = sweep_response_size(netlist, values, **common)
        name, label = "sweep_size.csv", "response_size"
    csv_rows = [f"{r.label},{r.uniqueness:.4f},{r.reliability:.4f}" for r in rows]
    _write_csv(out_dir / name, f"{label},uniqueness,reliability", csv_rows, chash)
    for row in csv_rows:
        print(row)
    return 0


def _cmd_report(args) -> int:
    hashes = {}
    pairs = {}
    for name in args.inputs:
        path = Path(name)
        chash = None
        for raw in path.read_text(encoding="utf-8").splitlines():
            line = raw.strip()
            if line.startswith("# config="):
                chash = kvfile.split(line, name)[1]
            elif line and not line.startswith("#") and "=" in line and "," not in line:
                key, value = kvfile.split(line, name)
                pairs[f"{path.name}:{key}"] = value
        hashes[str(path)] = chash
    distinct = {h for h in hashes.values() if h is not None}
    if len(distinct) > 1 and not args.force:
        print(
            "error: refusing to mix files from different configurations: "
            + ", ".join(f"{p}={h}" for p, h in sorted(hashes.items())),
            file=sys.stderr,
        )
        return 1
    if args.format == "csv":
        print("key,value")
        for key in sorted(pairs):
            print(f"{key},{pairs[key]}")
    else:
        for key in sorted(pairs):
            print(f"{key}={pairs[key]}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file; flags override it")
    parser.add_argument("--design", choices=sorted(DESIGN_NAMES))
    parser.add_argument("--stages", type=int)
    parser.add_argument("--ff-taps", dest="ff_taps", help="tap:target pairs, e.g. 16:32,32:48")
    parser.add_argument("--mean-delay", dest="mean_delay", type=float)
    parser.add_argument("--sigma-process", dest="sigma_process", type=float)
    parser.add_argument("--sigma-noise", dest="sigma_noise", type=float)
    parser.add_argument("--window", dest="metastability_window", type=float)
    parser.add_argument("--population", type=int)
    parser.add_argument("--challenges", type=int)
    parser.add_argument("--repetitions", type=int)
    parser.add_argument("--response-size", dest="response_size", type=int)
    parser.add_argument("--challenge-mode", dest="challenge_mode", choices=["random", "neighbor"])
    parser.add_argument("--seed", type=int)
    parser.add_argument(
        "--challenge-seed",
        dest="challenge_seed",
        type=int,
        help="separate seed for challenge selection (same population, fresh challenges)",
    )
    parser.add_argument("--out-dir", dest="out_dir")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="papuf", description=__doc__)
    parser.add_argument("--version", action="version", version=f"papuf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_device = sub.add_parser("device", help="synthesize or inspect devices")
    device_sub = p_device.add_subparsers(dest="device_command", required=True)
    p_new = device_sub.add_parser("new", help="synthesize a device file")
    _add_config_flags(p_new)
    p_new.add_argument("--out", help="device file path")
    p_new.set_defaults(handler=_cmd_device_new)
    p_show = device_sub.add_parser("show", help="print a device summary")
    p_show.add_argument("device")
    p_show.set_defaults(handler=_cmd_device_show)

    p_crp = sub.add_parser("crp", help="CRP dataset operations")
    crp_sub = p_crp.add_subparsers(dest="crp_command", required=True)
    p_gen = crp_sub.add_parser("gen", help="simulate and save a CRP dataset")
    _add_config_flags(p_gen)
    p_gen.add_argument("--out", help="CRP csv path")
    p_gen.add_argument(
        "--calibrate-target",
        dest="calibrate_target",
        type=float,
        help="calibrate sigma_noise to this reliability before collecting",
    )
    p_gen.set_defaults(handler=_cmd_crp_gen)

    p_metrics = sub.add_parser("metrics", help="evaluate a CRP dataset")
    p_metrics.add_argument("--crps", required=True)
    p_metrics.add_argument("--out-dir", dest="out_dir")
    p_metrics.set_defaults(handler=_cmd_metrics)

    p_key = sub.add_parser("keygen", help="fuzzy-extractor key operations")
    key_sub = p_key.add_subparsers(dest="keygen_command", required=True)
    p_enroll = key_sub.add_parser("enroll", help="enroll a device and emit helper data")
    p_enroll.add_argument("--device", required=True)
    p_enroll.add_argument("--challenge-hex", dest="challenge_hex")
    p_enroll.add_argument("--response-size", dest="response_size", type=int, default=128)
    p_enroll.add_argument("--votes", type=int, default=11)
    p_enroll.add_argument("--code-m", dest="code_m", type=int, default=7)
    p_enroll.add_argument("--code-t", dest="code_t", type=int, default=10)
    p_enroll.add_argument("--seed", type=int, default=0)
    p_enroll.add_argument("--helper-out", dest="helper_out")
    p_enroll.add_argument("--out-dir", dest="out_dir")
    p_enroll.set_defaults(handler=_cmd_keygen_enroll)
    p_repro = key_sub.add_parser("reproduce", help="reproduce a key from helper data")
    p_repro.add_argument("--device", required=True)
    p_repro.add_argument("--helper", required=True)
    p_repro.add_argument("--challenge-hex", dest="challenge_hex")
    p_repro.add_argument("--response-size", dest="response_size", type=int, default=128)
    p_repro.add_argument("--votes", type=int, default=11)
    p_repro.add_argument("--seed", type=int, default=1)
    p_repro.add_argument("--out-dir", dest="out_dir")
    p_repro.set_defaults(handler=_cmd_keygen_reproduce)

    p_attack = sub.add_parser("attack", help="modeling-attack harness")
    attack_sub = p_attack.add_subparsers(dest="attack_command", required=True)
    p_train = attack_sub.add_parser("train", help="train a logistic model on a CRP csv")
    p_train.add_argument("--crps", required=True)
    p_train.add_argument("--features", choices=["parity", "raw_bits"], default="parity")
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--out")
    p_train.add_argument("--out-dir", dest="out_dir")
    p_train.set_defaults(handler=_cmd_attack_train)
    p_eval = attack_sub.add_parser("eval", help="evaluate a model on a holdout CRP csv")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--crps", required=True)
    p_eval.set_defaults(handler=_cmd_attack_eval)
    p_compare = attack_sub.add_parser("compare", help="attack several designs side by side")
    p_compare.add_argument("--designs", default="apuf,pa-puf,ff-pa-puf")
    p_compare.add_argument("--stages", type=int, default=64)
    p_compare.add_argument("--budget", type=int, default=10000)
    p_compare.add_argument("--seeds", type=int, default=5)
    p_compare.add_argument("--sigma-noise", dest="sigma_noise", type=float, default=0.0)
    p_compare.add_argument("--out-dir", dest="out_dir")
    p_compare.set_defaults(handler=_cmd_attack_compare)

    p_sweep = sub.add_parser("sweep", help="parameter sweeps")
    sweep_sub = p_sweep.add_subparsers(dest="sweep_command", required=True)
    p_ff = sweep_sub.add_parser("ff", help="metrics vs feed-forward tap count")
    _add_config_flags(p_ff)
    p_ff.add_argument("--taps", default="0,1,2,3,4,5,6", help="comma-separated tap counts")
    p_ff.add_argument("--seeds", type=int, default=5)
    p_ff.set_defaults(handler=_cmd_sweep)
    p_size = sweep_sub.add_parser("size", help="metrics vs response size")
    _add_config_flags(p_size)
    p_size.add_argument("--sizes", default="8,16,32,64,128")
    p_size.add_argument("--seeds", type=int, default=3)
    p_size.set_defaults(handler=_cmd_sweep)

    p_report = sub.add_parser("report", help="merge emitted kv/csv files")
    p_report.add_argument("inputs", nargs="+")
    p_report.add_argument("--force", action="store_true")
    p_report.add_argument("--format", choices=["kv", "csv"], default="kv")
    p_report.set_defaults(handler=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

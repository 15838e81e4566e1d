"""Device synthesis: sampling process-variation delay tables and noise."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .netlist import Design, Netlist
from .seeds import SEED_MASK, derive_seed

# Sub-stream tags so that synthesis, noise and tie-break draws never collide.
NOISE_TAG = 0x6E6F69  # "noi"
TIE_TAG = 0x746965  # "tie"

# Delay tables are quantized to this many decimals at synthesis time so that
# the text device file (fixed point, 6 fractional digits) round-trips exactly.
TABLE_DECIMALS = 6


@dataclass(frozen=True)
class DelayParams:
    """Process and noise parameters of a simulated device population.

    Times are in abstract picoseconds; only arrival orderings matter, so any
    consistent unit works.  ``sigma_process`` spreads per-segment delays
    across devices, ``sigma_noise`` jitters arrival times per evaluation,
    and ``metastability_window`` is the tie window below which an arbiter
    resolves to a fair random bit.
    """

    mean_delay: float = 100.0
    sigma_process: float = 5.0
    sigma_noise: float = 0.0
    metastability_window: float = 0.0

    def __post_init__(self):
        for name in ("mean_delay", "sigma_process", "sigma_noise", "metastability_window"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.mean_delay > 0:
            raise ValueError(f"mean_delay must be positive, got {self.mean_delay}")
        for name in ("sigma_process", "sigma_noise", "metastability_window"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    def with_noise(self, sigma_noise: float) -> "DelayParams":
        return dataclasses.replace(self, sigma_noise=float(sigma_noise))


@dataclass(frozen=True)
class DeviceInstance:
    """One simulated chip: an immutable delay table plus its provenance.

    ``delay_table`` has shape (stages, 2, lines); entry [i, s, l] is the
    segment delay that line ``l`` adds at stage ``i`` when its mux select
    is ``s``.  The table is sampled once at synthesis and never mutated, so
    instances are safe to share across parallel workers.
    """

    device_id: str
    netlist: Netlist
    params: DelayParams
    seed: int
    delay_table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.delay_table, dtype=np.float64)
        expected = (self.netlist.stages, 2, self.netlist.lines)
        if table.shape != expected:
            raise ValueError(f"delay table shape {table.shape} does not match netlist {expected}")
        if not np.all(table > 0):
            raise ValueError("all segment delays must be strictly positive")
        table.flags.writeable = False
        object.__setattr__(self, "delay_table", table)

    def with_params(self, params: DelayParams) -> "DeviceInstance":
        """Same physical device under different noise/tie settings."""
        return dataclasses.replace(self, params=params)


def synthesize_device(
    params: DelayParams,
    netlist: Netlist,
    seed: int,
    device_id: str | None = None,
) -> DeviceInstance:
    """Sample one device's delay table.

    Segment delays are drawn i.i.d. from Normal(mean_delay, sigma_process)
    and rejection-resampled until strictly positive (a no-op in practice
    when mean_delay >> sigma_process).  Deterministic under (params,
    netlist, seed).
    """
    rng = np.random.default_rng(seed & SEED_MASK)
    shape = (netlist.stages, 2, netlist.lines)
    table = np.round(rng.normal(params.mean_delay, params.sigma_process, shape), TABLE_DECIMALS)
    while True:
        bad = table <= 0
        if not bad.any():
            break
        table[bad] = np.round(
            rng.normal(params.mean_delay, params.sigma_process, int(bad.sum())), TABLE_DECIMALS
        )
    if device_id is None:
        device_id = f"dev-{seed}"
    return DeviceInstance(device_id, netlist, params, int(seed), table)


def synthesize_population(
    params: DelayParams,
    netlist: Netlist,
    count: int,
    master_seed: int,
) -> list[DeviceInstance]:
    """Sample ``count`` independent devices.

    Child seeds are stable hashes of (master_seed, index), so growing the
    population never perturbs devices synthesized earlier.
    """
    if count < 1:
        raise ValueError(f"population count must be >= 1, got {count}")
    devices = []
    for index in range(count):
        child = derive_seed(master_seed, "device", index)
        devices.append(synthesize_device(params, netlist, child, device_id=f"dev-{index:03d}"))
    return devices


def sample_noise(device: DeviceInstance, eval_seed: int) -> np.ndarray:
    """One Normal(0, sigma_noise) arrival-time jitter draw per output line.

    Deterministic under eval_seed; this is exactly the terminal jitter that
    ``circuit.propagate`` adds for the same seed.
    """
    rng = np.random.default_rng([eval_seed & SEED_MASK, NOISE_TAG, 0])
    draws = rng.standard_normal((1, device.netlist.lines))[0]
    return device.params.sigma_noise * draws


# ---------------------------------------------------------------------------
# device file persistence (text, fixed point, exactly replayable)


def save_device(device: DeviceInstance, path, extra_header: dict | None = None) -> None:
    lines = ["# papuf-device v1"]
    for key, value in (extra_header or {}).items():
        lines.append(f"# {key}={value}")
    taps = ",".join(f"{a}:{b}" for a, b in device.netlist.ff_taps) or "none"
    lines += [
        f"device_id={device.device_id}",
        f"design={device.netlist.design.value}",
        f"stages={device.netlist.stages}",
        f"ff_taps={taps}",
        f"seed={device.seed}",
        f"mean_delay={device.params.mean_delay:.6f}",
        f"sigma_process={device.params.sigma_process:.6f}",
        f"sigma_noise={device.params.sigma_noise:.6f}",
        f"metastability_window={device.params.metastability_window:.6f}",
        "delays:",
    ]
    for stage in device.delay_table:
        lines.append(" ".join(f"{v:.6f}" for v in stage.reshape(-1)))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def load_device(path) -> DeviceInstance:
    fields: dict[str, str] = {}
    rows: list[list[float]] = []
    in_table = False
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if in_table:
                rows.append([float(v) for v in line.split()])
            elif line == "delays:":
                in_table = True
            else:
                key, value = line.split("=", 1)
                fields[key] = value
    try:
        taps = ()
        if fields["ff_taps"] != "none":
            taps = tuple(tuple(int(x) for x in pair.split(":")) for pair in fields["ff_taps"].split(","))
        netlist = Netlist(Design(fields["design"]), int(fields["stages"]), taps)
        params = DelayParams(
            mean_delay=float(fields["mean_delay"]),
            sigma_process=float(fields["sigma_process"]),
            sigma_noise=float(fields["sigma_noise"]),
            metastability_window=float(fields["metastability_window"]),
        )
        device_id, seed = fields["device_id"], int(fields["seed"])
    except KeyError as exc:
        raise ValueError(f"{path}: device file lacks {exc.args[0]!r}") from None
    table = np.array(rows, dtype=np.float64).reshape(netlist.stages, 2, netlist.lines)
    return DeviceInstance(device_id, netlist, params, seed, table)

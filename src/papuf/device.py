"""Device synthesis: sampling process-variation delay tables, and device files."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import kvfile
from .netlist import Design, Netlist, format_taps, parse_taps
from .seeds import SEED_MASK, derive_seed

# Sub-stream tags so that synthesis, noise and tie-break draws never collide.
NOISE_TAG = 0x6E6F69  # "noi"
TIE_TAG = 0x746965  # "tie"

# Delay tables are quantized to this many decimals at synthesis time so that
# the text device file (fixed point, 6 fractional digits) round-trips exactly.
TABLE_DECIMALS = 6

# The four DelayParams fields and how files store them: fixed point, 6 decimals.
PARAM_SCHEMA = dict.fromkeys(("mean_delay", "sigma_process", "sigma_noise", "metastability_window"), float)


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
        for name in PARAM_SCHEMA:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.mean_delay > 0:
            raise ValueError(f"mean_delay must be positive, got {self.mean_delay}")
        for name in ("sigma_process", "sigma_noise", "metastability_window"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    def with_noise(self, sigma_noise: float) -> "DelayParams":
        return dataclasses.replace(self, sigma_noise=float(sigma_noise))

    def fields(self) -> dict[str, str]:
        return {name: f"{getattr(self, name):.6f}" for name in PARAM_SCHEMA}

    @classmethod
    def parse(cls, text: str) -> "DelayParams":
        """The ``;``-joined ``fields`` of a CRP file's ``# params=`` header."""
        fields = kvfile.parse(text.split(";"), PARAM_SCHEMA, f"params {text!r}")
        return cls(**{name: fields[name] for name in PARAM_SCHEMA})


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
        if not np.all((table > 0) & (table < np.inf)):
            raise ValueError("all segment delays must be finite and strictly positive")
        table.flags.writeable = False
        object.__setattr__(self, "delay_table", table)

    def with_params(self, params: DelayParams) -> "DeviceInstance":
        """Same physical device under different noise/tie settings."""
        return dataclasses.replace(self, params=params)

    def fields(self) -> dict[str, str]:
        """Everything but the delay table, as the device file stores it."""
        return {
            "device_id": self.device_id,
            "design": self.netlist.design.value,
            "stages": str(self.netlist.stages),
            "ff_taps": format_taps(self.netlist.ff_taps),
            "seed": str(self.seed),
            **self.params.fields(),
        }


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


# ---------------------------------------------------------------------------
# device file persistence (text, fixed point, exactly replayable)


def save_device(device: DeviceInstance, path, extra_header: dict | None = None) -> None:
    table = (" ".join(f"{v:.6f}" for v in stage.reshape(-1)) for stage in device.delay_table)
    kvfile.write(path, "device", device.fields(), extra_header, marker="delays:", table=table)


def load_device(path) -> DeviceInstance:
    schema = {"device_id": str, "design": Design, "stages": int, "ff_taps": parse_taps, "seed": int, **PARAM_SCHEMA}
    with open(path, encoding="utf-8") as handle:
        fields = kvfile.read(handle, schema, marker="delays:")
        try:
            delays = [float(v) for line in handle for v in line.split()]
        except ValueError as exc:
            raise ValueError(f"{path}: bad delay: {exc}") from None
    netlist = Netlist(fields["design"], fields["stages"], fields["ff_taps"])
    params = DelayParams(**{name: fields[name] for name in PARAM_SCHEMA})
    shape = (netlist.stages, 2, netlist.lines)
    if len(delays) != math.prod(shape):
        raise ValueError(f"{path}: expected {math.prod(shape)} delays, found {len(delays)}")
    return DeviceInstance(fields["device_id"], netlist, params, fields["seed"], np.reshape(delays, shape))

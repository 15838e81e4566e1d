"""Monte-Carlo simulator and evaluation toolkit for priority-arbiter PUFs."""

from .attack import (
    AttackModel,
    FeatureMap,
    compare_designs,
    evaluate_attack,
    train,
)
from .bch import BchCode, bch_decode, bch_encode, default_code
from .circuit import clean_arrival_times, propagate_many, read_probabilities, repeated_reads
from .device import (
    DelayParams,
    DeviceInstance,
    load_device,
    save_device,
    synthesize_device,
    synthesize_population,
)
from .keyfuzz import HelperData, SecretKey, enroll, load_helper, reproduce, save_helper
from .metrics import (
    CalibrationError,
    CalibrationResult,
    MetricsReport,
    bit_aliasing,
    calibrate_noise,
    compute_report,
    inter_hd,
    intra_hd,
    measure_reliability,
    reliability,
    robustness,
    sweep_feed_forward,
    sweep_response_size,
    uniformity,
    uniqueness,
)
from .netlist import Design, Netlist, default_ff_taps
from .response import (
    CrpSet,
    collect_crps,
    expand_challenge,
    load_crps,
    majority_vote,
    save_crps,
)

__version__ = "0.1.0"

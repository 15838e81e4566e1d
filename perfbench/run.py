"""papuf benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload population --seed 0 --seconds 28 --trace 0

Builds the workload's inputs from --seed, then repeats the workload until
the next repetition would overrun --seconds (at least once), and prints the
median.  Every repetition's outputs are checked and digested.  With
``--trace 1`` it also runs the workload once more with span wrappers
installed on the papuf layers and prints the per-layer metrics instead.
The last line of standard output is one JSON object; the lines before it
are a readable report.  See perfbench/README.md.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS/OpenMP thread, fixed before numpy is first imported: fit_logistic's
# matrix products would otherwise use every core, unpinned.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

from hostspeed import HostSpeed, burst_speed  # noqa: E402  (imports numpy)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("crp_bits_per_s", "1/s"),
    ("ops_per_s", "1/s"),
)
IMPORT_SAMPLES = 5  # fresh interpreters timed to import papuf
BUILD_SAMPLES = 3  # in-process input builds
IMPORT_PROBE = "import numpy, papuf, papuf.cli"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "not installed"


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": _version("scipy"),
        "blas_threads": THREADS,
        "thread_vars": {var: os.environ[var] for var in THREAD_VARS},
    }


def import_seconds() -> float:
    """Median time for a fresh interpreter to start and import papuf, in
    nominal-host seconds (each sample scaled by a probe burst taken just before)."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); {IMPORT_PROBE}"
    samples = []
    for _ in range(IMPORT_SAMPLES):
        speed = burst_speed()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, env=os.environ.copy())
        samples.append((time.perf_counter() - start) / speed)
    return statistics.median(samples)


def timed(fn, *args):
    """Run ``fn`` under the host-speed probes; returns (result, raw seconds
    without probe time, the same in nominal-host seconds)."""
    with HostSpeed() as host:
        start = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - start - host.probe_time()
    return result, raw, raw / host.speed()


def measure(run, inputs, workdir: Path, seconds: float, reserve: int):
    """Repeat ``run`` while the next repetition (estimated by the median so
    far, plus ``reserve`` more for a later traced pass) fits in ``seconds``."""
    reps, raw, norm = [], [], []
    start = time.perf_counter()
    while True:
        rep, raw_s, norm_s = timed(run, inputs, workdir)
        reps.append(rep)
        raw.append(raw_s)
        norm.append(norm_s)
        elapsed = time.perf_counter() - start
        if elapsed + (1 + reserve) * statistics.median(raw) > seconds:
            return reps, raw, norm


def _rounded(values) -> list:
    return [round(v, 4) for v in values]


def report_workload(ops_name: str, reps, wall: float) -> None:
    """Workload-specific figures, printed for people; the gated metrics are in the JSON."""
    last = reps[-1]
    print(f"{ops_name}_per_s={last.ops / wall:.6f} ({last.ops} per repetition)")
    for key, value in last.extra.items():
        print(f"{key}={value:.4f}" if isinstance(value, float) else f"{key}={value}")


def report_trace(recorder, layer: dict, trace_path: Path) -> None:
    self_s = recorder.self_times()
    top = sorted(self_s.items(), key=lambda kv: -kv[1])
    print("trace_self_s " + " ".join(f"{k}={v:.4f}" for k, v in top))
    print(f"trace_dominant_layer={top[0][0] if top else 'none'}")
    print(f"trace_coverage={layer['trace.coverage']['value']:.4f}")
    print(f"trace_overhead_s={layer['trace.overhead_s']['value']:.4f}")
    for weight, (n, mean) in recorder.decode_weights().items():
        print(f"bch_decode_weight_{weight} calls={n} mean_ms={mean * 1000:.4f}")
    for sigma, rel in recorder.calibration_probes():
        print(f"calibration_probe sigma_noise={sigma:.6f} reliability={rel:.4f}")
    print(f"trace_file={trace_path.relative_to(ROOT)}")


def write_trace(path: Path, workload: str, seed: int, env: dict, recorder, layer: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    data = {
        "workload": workload,
        "seed": seed,
        "environment": env,
        "per_layer": layer,
        "counts": {name: dict(c) for name, c in recorder.counts.items()},
        "span_fields": ["name", "parent", "start_s", "end_s", "note"],
        "spans": recorder.spans,
    }
    path.write_text(json.dumps(data) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["population", "keygen", "attack", "ff_sweep"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "papuf" / "__init__.py").is_file():
        print(f"error: papuf sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads  # imports numpy and papuf
    from spans import SpanRecorder

    import_in_process = time.perf_counter() - _PROCESS_START
    env = environment()
    setup_fn, run_fn = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    attempted = failed = 0
    checks_per_rep = 0
    try:
        imports = import_seconds()
        builds = []
        for _ in range(BUILD_SAMPLES):
            inputs, _, build_s = timed(setup_fn, args.seed)
            builds.append(build_s)
        setup_s = imports + statistics.median(builds)

        reps, raw_walls, walls = measure(run_fn, inputs, workdir, args.seconds, reserve=args.trace)
        checks_per_rep = len(reps[0].checks)
        if args.trace:
            # No probes inside the traced pass: they would land in the spans.
            with SpanRecorder() as recorder:
                start = time.perf_counter()
                reps.append(run_fn(inputs, workdir))
                traced_raw = time.perf_counter() - start
    except Exception:
        traceback.print_exc()
        attempted = max(1, checks_per_rep)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": attempted, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wall = statistics.median(walls)
    for rep in reps:
        for check, ok in rep.checks:
            attempted += 1
            failed += not ok
            if not ok:
                print(f"check_failed {check}")
    digests = {rep.digest for rep in reps}
    attempted += 1
    failed += len(digests) != 1  # every repetition, traced or not, gives the same outputs
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"untraced_reps={len(walls)} raw_walls_s={_rounded(raw_walls)} norm_walls_s={_rounded(walls)}")
    print(f"import_in_process_s={import_in_process:.4f} import_fresh_s={imports:.4f} build_s={_rounded(builds)}")
    for digest in sorted(digests):
        print(f"digest={digest}")
    print(f"checks_attempted={attempted} checks_failed={failed} failed_ratio={failed / attempted:.6f}")
    report_workload(workloads.OPS_NAME[args.workload], reps[: len(walls)], wall)

    last = reps[-1]
    if args.trace:
        layer = recorder.layer_metrics(traced_raw, traced_raw - statistics.median(raw_walls))
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        write_trace(trace_path, args.workload, args.seed, env, recorder, layer)
        report_trace(recorder, layer, trace_path)
        result = layer
    else:
        values = {
            "wall_s": wall,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "crp_bits_per_s": last.crp_bits / wall,
            "ops_per_s": last.ops / wall,
        }
        result = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Check that tracing changes no output and that trace counts repeat exactly.

    python3 perfbench/selfcheck.py [--seed N] [workload ...]

Runs each workload's traced run twice with the same seed, each in a fresh
process with the shortest measuring window (one untraced repetition, then
the traced one).  It fails when a run reports failed checks, when the traced
repetition's digest differs from the untraced one (the run then prints two
digests), when the digests differ between the two runs, or when any count
metric differs between them.  Exit code 0 means every check held.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("population", "keygen", "attack", "ff_sweep")
EXACT_UNITS = ("count", "bytes")


def traced_run(workload: str, seed: int) -> tuple[list[str], dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.splitlines()
    digests = [line.split("=", 1)[1] for line in out if line.startswith("digest=")]
    return digests, json.loads(out[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args(argv)
    problems = []
    for workload in args.workloads:
        (d1, r1), (d2, r2) = traced_run(workload, args.seed), traced_run(workload, args.seed)
        if not (r1["correct"] and r2["correct"]):
            problems.append(f"{workload}: failed checks")
        if len(d1) != 1 or d1 != d2:
            problems.append(f"{workload}: digests differ: {d1} vs {d2}")
        counts = {k: v["value"] for k, v in r1["metrics"].items() if v["unit"] in EXACT_UNITS}
        for name, value in counts.items():
            if r2["metrics"][name]["value"] != value:
                problems.append(f"{workload}: {name} {value} vs {r2['metrics'][name]['value']}")
        print(f"{workload}: digest {d1[0][:16]}, {len(counts)} counts compared", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

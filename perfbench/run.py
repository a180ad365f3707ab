"""eigenperm benchmark: one workload, one seed, its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from src/.
Workloads: class_small, members_large, census, sequences (see workloads.py).
Load is closed-loop: one caller, one thread, each op sent after the previous
one returns, one interpreter at a time.  Every measurement runs in a fresh
interpreter (worker.py).  With --trace 0 a run sets up several times and then
repeats the workload's op set for S seconds, and the last line holds the
end-to-end metrics.  Their times are at reference speed (reference.py): each
is scaled by a fixed loop of the benchmark's own timed beside it, so that the
host's drift cancels; the wall-clock times (wall_s, raw_setup_s) are printed
before the last line.
With --trace 1 it runs the op set once untraced and once under the tracer,
and the last line holds the per-layer metrics.  The lines
before it name every metric with its unit, the environment and the shape of
the inputs.  A run whose program gives a wrong result exits 0 with
"correct": false; a run that cannot run the program exits 2 or 1 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_RUNS = 11  # interpreters that only set up; the measuring one adds a twelfth
DEADLINE_S = 170  # a run must end within 180 s
END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB"))


def child(args: list[str], env: dict[str, str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON line."""
    proc = subprocess.run([sys.executable, WORKER, *args], env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(args)} exited with status {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            return next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "unknown")
    except OSError:
        return "unknown"


def line(name: str, value: object, unit: str, note: str = "") -> None:
    print(f"{name} {value} {unit}{note}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "eigenperm", "__init__.py")):
        print("run from the root of an eigenperm checkout: src/eigenperm is missing", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"# python {platform.python_version()} nproc {len(os.sched_getaffinity(0))} cpu {cpu_model()}")
    if args.trace:
        result = child([*common, "--mode", "trace"], env, deadline)
        metrics = result["per_layer"]
    else:
        setups = [child([*common, "--mode", "setup"], env, deadline) for _ in range(SETUP_RUNS)]
        result = child([*common, "--mode", "measure", "--seconds", str(args.seconds)], env, deadline)
        setups.append(dict(result))
        for name in ("setup_s", "raw_setup_s"):
            result[name] = statistics.median(s[name] for s in setups)
        metrics = {name: (result[name], unit) for name, unit in END_TO_END}

    tally = result["tally"]
    attempted = tally.get("ok", 0) + tally.get("failed", 0)
    known = tally.get("known", 0)
    print(f"# shape {json.dumps(result['shape'], sort_keys=True)}")
    print(f"# ops_per_pass {result['ops_per_pass']} passes {result['passes']} known_failures {known}")
    if args.trace:
        print(f"# spans {result['spans']} member_round_trips {result['round_trips']}"
              f" untraced_wall_s {result['wall_s']} traced_wall_s {result['traced_wall_s']}")
    else:
        print(f"# pass_s of each pass {result['walls']}")
        print(f"# ref_loop_ms {result['ref_loop_ms']}  (the reference loop's time while the ops ran: wall_s over pass_s)")
    for name, (value, unit) in metrics.items():
        line(name, value, unit)
    if not args.trace:
        line("wall_s", result["wall_s"], "s", "  (wall-clock, median pass)")
        line("raw_setup_s", result["raw_setup_s"], "s", "  (wall-clock)")
        line("op_p50_ms", result["op_p50_ms"], "ms")
        line("fail_frac", (tally.get("failed", 0) + known) / (attempted + known), "frac",
             "  (known failures included)")
        tail = result.get("op_tail")
        if tail:
            line("op_tail_ms", tail["ms"], "ms",
                 f"  (p{tail['percentile']} of {tail['samples']} samples, {tail['beyond']} beyond)")
        for name, value in result["commands"].items():
            line(name, value, "s")
    print(json.dumps({
        "correct": tally.get("failed", 0) == 0,
        "attempted": attempted,
        "failed": tally.get("failed", 0),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

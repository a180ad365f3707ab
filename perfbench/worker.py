"""One fresh interpreter of a benchmark run; run.py starts it.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|measure|trace [--seconds S]

``setup`` imports eigenperm and warms up, ``measure`` then repeats the
workload's op set for S seconds untraced, and ``trace`` runs it once
untraced and once under the tracer.  The last stdout line is a JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter

from reference import LOOP_S, Reference

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MAX_REPORTED_FAILURES = 20
SETUP_LOOPS = 21  # reference loops timed on each side of the set-up

TRACED = [
    *(f"perms.{f}" for f in ("as_perm", "is_standard", "reduce_word", "lit_entries", "lrmax_factorize",
                             "fast_35241ok", "is_avoider", "satisfies", "census", "parse_pattern")),
    *(f"bijection.{f}" for f in ("star_encode", "star_decode", "collapse_stars", "expand_stars",
                                 "sort_factor_tails", "window_plan", "marked_to_list", "list_to_marked",
                                 "eigen_decompose", "eigen_compose", "MarkedPermutation", "StarredPermutation")),
    *(f"series.{f}" for f in ("compose", "eigensequence", "verify_shift")),
    *(f"recurrences.{f}" for f in ("recurrence_tables", "compositions", "dominance_count",
                                   "counts_via_dominance", "catalan_via_compositions")),
    *(f"four_patterns.{f}" for f in ("classify", "pattern_orbit", "new4_terms", "a051295_terms")),
    *(f"textforms.{f}" for f in ("parse_perm", "format_perm", "parse_perm_list", "format_perm_list")),
    "verify.run_suite",
    "cli.run",
]
ROUND_TRIP_ROOTS = ("bijection.eigen_decompose", "bijection.eigen_compose")
PER_OP = ("perms.as_perm", "perms.fast_35241ok", "bijection.MarkedPermutation")


def _census_counts(args: tuple, kwargs: dict, result: object) -> dict[str, int]:
    n = args[1] if len(args) > 1 else kwargs["n"]
    return {"perms.census.checked": math.factorial(n), "perms.census.found": result}


def _composition_counts(args: tuple, kwargs: dict, result: object) -> dict[str, int]:
    return {"recurrences.compositions.items": len(result)}


OBSERVERS = {"perms.census": _census_counts, "recurrences.compositions": _composition_counts}


def tail_percentile(ops: int) -> float | None:
    """Highest ladder percentile with at least 10 of ``ops`` samples beyond it."""
    return next((p for p in TAIL_LADDER if ops - math.ceil(p * ops / 100) >= 10), None)


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def peak_rss() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_pass(w, op_box: list[int] | None = None,
             ref: Reference | None = None) -> tuple[float, list[float], list[tuple], list[float]]:
    """Run every op once, in order; outcomes are judged afterwards.

    Returns the pass time (the sum of the op times), the op times, the
    outcomes and, with ``ref``, the op times at reference speed: the
    reference loop is sampled on a timer while the ops run (reference.py)
    and its time is taken out of the op it interrupted.
    """
    clock, run = time.perf_counter, w.run
    latency: list[float] = []
    results: list[tuple] = []
    spans: list[tuple[float, float]] = []
    stolen = 0.0
    if ref is not None:
        ref.start()
    try:
        for i, op in enumerate(w.ops):
            if op_box is not None:
                op_box[0] = i
            if ref is not None:
                stolen = ref.stolen
            t0 = clock()
            try:
                out, exc = run(op), None
            except Exception as e:  # the op's outcome, judged after the pass
                out, exc = None, e.with_traceback(None)
            t1 = clock()
            if ref is not None:
                stolen = ref.stolen - stolen
            latency.append(t1 - t0 - stolen)
            spans.append((t0, t1))
            results.append((out, exc))
    finally:
        if ref is not None:
            ref.stop()
    at_ref = [ref.at_ref(*span) for span in spans] if ref is not None else []
    return math.fsum(latency), latency, results, at_ref


def judge_pass(w, results: list[tuple]) -> tuple[Counter, list[str]]:
    """Tally ok / known / failed, printing each failure with its input."""
    from workloads import judge

    tally: Counter = Counter()
    verdicts = []
    for op, (out, exc) in zip(w.ops, results):
        verdict = judge(w, op, out, exc)
        verdicts.append(verdict)
        if verdict in ("ok", "known"):
            tally[verdict] += 1
            continue
        tally["failed"] += 1
        if tally["failed"] <= MAX_REPORTED_FAILURES:
            print(f"FAILED {w.name} {op.kind} {str(op.arg)[:200]}: {verdict}", file=sys.stderr)
    return tally, verdicts


def measure(w, seconds: float, ref: Reference) -> dict:
    """Repeat the op set while another pass still fits in ``seconds``.

    Every time it reports is at reference speed, except ``wall_s``.
    """
    walls: list[float] = []
    raw_walls: list[float] = []
    laps: list[float] = []
    latencies: list[float] = []
    by_op: list[list[float]] = [[] for _ in w.ops]
    tally: Counter = Counter()
    ref.warm()
    begin = time.perf_counter()
    while True:
        lap = time.perf_counter()
        raw_wall, _, results, at_ref = run_pass(w, ref=ref)
        tally += judge_pass(w, results)[0]
        raw_walls.append(raw_wall)
        walls.append(math.fsum(at_ref))
        latencies.extend(at_ref)
        for times, t in zip(by_op, at_ref):
            times.append(t)
        laps.append(time.perf_counter() - lap)
        if len(laps) == 1:
            # One pass in a fresh interpreter: later passes would add garbage
            # that only a full collection frees (recurrences.compositions).
            peak_rss_mb = peak_rss()
        if time.perf_counter() - begin + statistics.median(laps) > seconds:
            break
    out = {
        "passes": len(walls),
        "ops_per_pass": len(w.ops),
        "pass_s": statistics.median(walls),
        "walls": walls,
        "wall_s": statistics.median(raw_walls),
        "ref_loop_ms": 1e3 * LOOP_S * statistics.median(r / t for r, t in zip(raw_walls, walls)),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "tally": dict(tally),
        "peak_rss_mb": peak_rss_mb,
        "commands": {op.metric: statistics.median(times) for op, times in zip(w.ops, by_op) if op.metric},
    }
    p = tail_percentile(len(w.ops))
    if p is not None:
        out["op_tail"] = {"ms": 1e3 * percentile(latencies, p), "percentile": p, "samples": len(latencies),
                          "beyond": len(latencies) - math.ceil(p * len(latencies) / 100)}
    return out


def trace(w) -> dict:
    """One untraced pass, then one traced pass; per-layer metrics from its spans."""
    from tracer import Tracer
    from workloads import LARGE_SIZES

    plain_wall, _, results, _ = run_pass(w)
    tally = judge_pass(w, results)[0]
    tracer = Tracer(TRACED, OBSERVERS)
    tracer.install()
    try:
        traced_wall, _, results, _ = run_pass(w, tracer.current_op)
    finally:
        tracer.uninstall()
    traced_tally, verdicts = judge_pass(w, results)
    del results
    calls, self_s, root = tracer.summary()
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"{w.name}.spans"))

    metrics: dict[str, tuple[float, str]] = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")

    # Work per completed member round trip, counted inside the bijection calls.
    round_trips = {i for i, (op, v) in enumerate(zip(w.ops, verdicts)) if op.kind == "roundtrip" and v == "ok"}
    roots = {tracer.names.index(name): name for name in ROUND_TRIP_ROOTS}
    wanted = {tracer.names.index(name): name for name in PER_OP}
    inside: Counter = Counter()
    durations: dict[tuple[str, int], list[float]] = {}
    fn, parent, op_of, start, end = tracer.fn, tracer.parent, tracer.op, tracer.start, tracer.end
    for i in range(len(start)):
        if op_of[i] not in round_trips:
            continue
        fid = fn[i]
        if fid in wanted and fn[root[i]] in roots:
            inside[wanted[fid]] += 1
        if parent[i] < 0 and fid in roots:
            durations.setdefault((roots[fid], w.ops[op_of[i]].n), []).append(end[i] - start[i])
    per = max(1, len(round_trips))
    metrics["perms.as_perm.calls_per_op"] = (inside["perms.as_perm"] / per, "calls/op")
    metrics["perms.fast_35241ok.calls_per_op"] = (inside["perms.fast_35241ok"] / per, "calls/op")
    metrics["bijection.MarkedPermutation.inits_per_op"] = (inside["bijection.MarkedPermutation"] / per, "calls/op")
    checked = tracer.counts["perms.census.checked"]
    metrics["perms.census.yield"] = (tracer.counts["perms.census.found"] / checked if checked else 0.0,
                                     "members/perm")
    metrics["recurrences.compositions.items"] = (tracer.counts["recurrences.compositions.items"], "count")
    for name in ROUND_TRIP_ROOTS:
        for n in LARGE_SIZES:
            times = durations.get((name, n))
            metrics[f"{name}.p50_ms.n{n}"] = (1e3 * statistics.median(times) if times else 0.0, "ms")
    metrics["trace_overhead_frac"] = (traced_wall / plain_wall - 1.0, "frac")
    return {
        "passes": 2,
        "ops_per_pass": len(w.ops),
        "round_trips": len(round_trips),
        "spans": len(start),
        "wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "tally": dict(tally + traced_tally),
        "per_layer": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()

    # setup_s: importing the program plus the warm-up, nothing of the
    # benchmark's own, at the reference speed timed just before and after.
    ref = Reference()
    ref.warm()
    loop_before = ref.median(SETUP_LOOPS)
    t0 = time.perf_counter()
    import eigenperm
    import eigenperm.cli  # noqa: F401  (the package does not import its CLI)

    import_s = time.perf_counter() - t0
    src = os.environ.get("PYTHONPATH", "")
    if not eigenperm.__file__.startswith(os.path.abspath(src) + os.sep):
        print(f"eigenperm came from {eigenperm.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.BY_NAME:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.BY_NAME)}", file=sys.stderr)
        return 2
    warm = workloads.warm_up_inputs(args.workload)
    t1 = time.perf_counter()
    workloads.warm_up(args.workload, warm)
    raw_setup_s = import_s + time.perf_counter() - t1
    loop_after = ref.median(SETUP_LOOPS)
    result = {"setup_s": raw_setup_s * 2 * LOOP_S / (loop_before + loop_after), "raw_setup_s": raw_setup_s}
    if args.mode != "setup":
        w = workloads.BY_NAME[args.workload](args.seed)
        result.update(measure(w, args.seconds, ref) if args.mode == "measure" else trace(w))
        result["shape"] = w.shape
    result.setdefault("peak_rss_mb", peak_rss())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

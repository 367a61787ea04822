"""Benchmark of the transversal toolkit: one workload per run.

    python3 bench/run.py --workload sparse-many --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --report --seed 1 --seconds 25     # every workload, both modes

Single process, single thread, standard library only.  The library is
imported from ``src/`` next to this directory; without it the run exits
with code 2 before printing a result.  Informational lines come first;
the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of the traced run with
``--trace 1``.  See README.md in this directory for what each workload
and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import signal
import statistics
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import spans as tracing  # noqa: E402
from reference import minimal_transversals  # noqa: E402
from workloads import MEM_PER_GROUP, SPECS, Recorder, check_sentinel, make_instances, make_ops  # noqa: E402

MODULES = ["core", "generators", "hitting", "extension", "enumeration", "verify",
           "rank", "cliques", "conformal", "oracle", "cli"]
END_TO_END = {
    "setup_s": "s",
    "outputs_per_s": "1/s",
    "first_output_ms_p50": "ms",
    "gap_ms_p50": "ms",
    "gap_ms_p90": "ms",
    "cli_first_line_ms_p50": "ms",
    "peak_mem_mib": "MiB",
}
OP_CAP_S = 30.0  # an op past this is stopped and counted as failed
PROBE_CAP_S = 2.0  # the conf16 sentinel, which stalls at this commit
SETUP_REPEATS = 5
NS_PER_MS = 1e6

# Speed calibration.  The machine this benchmark was tuned on is shared:
# a fixed op took 1.0x to 2.2x its best time, in phases from a fraction
# of a second to over 40 s, so whole runs could be 1.7x slower than
# others.  Every timed call is therefore bracketed by a fixed kernel
# (the benchmark's own transversal search on a fixed 14-vertex,
# 30-edge hypergraph: no library code) and scaled by CAL_NOMINAL_NS over
# the kernel's mean time around it: reported times are what the call
# would take when the kernel takes CAL_NOMINAL_NS, its best time on an
# Intel Xeon vCPU under Python 3.11.
_cal_rng = random.Random("calibration")
CAL_EDGES = tuple(sum(1 << v for v in _cal_rng.sample(range(14), 3)) for _ in range(30))
CAL_NOMINAL_NS = 1_700_000


def calibrate() -> int:
    t0 = time.perf_counter_ns()
    minimal_transversals(CAL_EDGES)
    return time.perf_counter_ns() - t0


class Capped(BaseException):
    """Raised by the alarm inside an op that ran past its cap.

    A BaseException, so no ``except Exception`` in the library eats it.
    """


def _alarm(_signum, _frame):
    raise Capped


class LibraryMissing(Exception):
    pass


# ---------------------------------------------------------------- setup


def import_library() -> SimpleNamespace:
    """A fresh import of every library module from ``src/``."""
    if not (SRC / "transversal" / "__init__.py").is_file():
        raise LibraryMissing(f"no transversal package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "transversal" or n.startswith("transversal.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"transversal.{m}") for m in MODULES})
    if Path(lib.core.__file__).resolve().parent.parent != SRC:
        raise LibraryMissing(f"transversal was imported from {lib.core.__file__}, not {SRC}")
    return lib


def setup(name: str, seed: int, smoke: bool) -> tuple[SimpleNamespace, dict, float]:
    """Import the library, generate and serialize the instances; the
    speed-adjusted seconds it took are one ``setup_s`` sample."""
    gc.collect()
    before = calibrate()
    t0 = time.perf_counter()
    lib = import_library()
    instances = make_instances(lib, name, seed, smoke)
    took = time.perf_counter() - t0
    return lib, instances, took * 2 * CAL_NOMINAL_NS / (before + calibrate())


# ---------------------------------------------------------------- one op


def run_op(op, cap_s: float = OP_CAP_S) -> dict:
    """Time one op and check its answer afterwards."""
    rec = Recorder()
    answer = None
    status = "ok"
    before = calibrate()
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    t0 = time.perf_counter_ns()
    try:
        answer = op.run(rec)
    except Capped:
        status = "capped"
    except Exception as exc:  # the op failed; the run goes on and counts it
        status = f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    t1 = time.perf_counter_ns()
    scale = 2 * CAL_NOMINAL_NS / (before + calibrate())
    if status == "capped":  # enters the percentiles at the cap
        t1 = t0 + int(cap_s * 1e9)
    if status == "ok":
        wrong = op.check(rec, answer)
        if wrong is not None:
            status = f"wrong: {wrong}"
    stamps = rec.stamps if (op.stream or op.cli) else ([t1] if status == "ok" else [])
    first = (stamps[0] if stamps else t1) - t0
    gaps = []
    if not op.cli:
        marks = [t0] + stamps
        gaps = [b - a for a, b in zip(marks, marks[1:])]
        if op.stream or not stamps:
            gaps.append(t1 - marks[-1])
    return dict(op=op, status=status, ns=t1 - t0, first=first, gaps=gaps,
                outputs=len(stamps) if not op.cli else 0, scale=scale)


# ---------------------------------------------------------------- statistics


def pct(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def group_median(samples: list[dict], value) -> float:
    """Geometric mean, over the (kind, class) groups of ``samples``, of
    each group's median ``value``.

    Groups differ in cost by up to a hundredfold, so one median over all
    samples sits wherever two groups' ranges meet and jumps between them
    from seed to seed; the mean of the groups' medians does not.
    """
    groups: dict[str, list[float]] = {}
    for s in samples:
        groups.setdefault(s["op"].group, []).append(value(s))
    meds = [statistics.median(v) for v in groups.values()]
    return math.exp(statistics.fmean(math.log(m) for m in meds))


def end_to_end(runs: list[list[dict]], setup_times: list[float], mem: list[tuple[str, int]]) -> tuple[dict, dict]:
    """The end-to-end metrics, speed-adjusted, and their sample counts.
    Every repetition of every op is one sample."""
    samples = [s for r in runs for s in r]
    lib_ops = [s for s in samples if not s["op"].cli]
    cli_ops = [s for s in samples if s["op"].cli]
    gaps = [g * s["scale"] / NS_PER_MS for s in lib_ops for g in s["gaps"]]
    mem_groups: dict[str, list[int]] = {}
    for group, peak in mem:
        mem_groups.setdefault(group, []).append(peak)
    values = {
        "setup_s": statistics.median(setup_times),
        "outputs_per_s": group_median(lib_ops, lambda s: s["outputs"] / (s["ns"] * s["scale"] / 1e9)),
        "first_output_ms_p50": group_median(lib_ops, lambda s: s["first"] * s["scale"] / NS_PER_MS),
        "gap_ms_p50": group_median(
            [dict(s, gap=g) for s in lib_ops for g in s["gaps"]], lambda s: s["gap"] * s["scale"] / NS_PER_MS),
        "gap_ms_p90": pct(gaps, 90),
        "cli_first_line_ms_p50": group_median(cli_ops, lambda s: s["first"] * s["scale"] / NS_PER_MS),
        "peak_mem_mib": math.exp(statistics.fmean(
            math.log(statistics.median(v)) for v in mem_groups.values())) / 2**20,
    }
    counts = dict.fromkeys(values, len(lib_ops))
    counts.update(setup_s=len(setup_times), gap_ms_p50=len(gaps), gap_ms_p90=len(gaps),
                  cli_first_line_ms_p50=len(cli_ops), peak_mem_mib=len(mem))
    return values, counts


def by_kind(runs: list[list[dict]]) -> dict[str, tuple[list[float], list[float]]]:
    """Latency of each op kind in ms, speed-adjusted and as measured."""
    kinds: dict[str, tuple[list[float], list[float]]] = {}
    for s in (s for r in runs for s in r):
        adjusted, raw = kinds.setdefault(s["op"].kind, ([], []))
        adjusted.append(s["ns"] * s["scale"] / NS_PER_MS)
        raw.append(s["ns"] / NS_PER_MS)
    return kinds


# ---------------------------------------------------------------- provenance


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(name: str, seed: int, instances: dict, load: tuple) -> list[str]:
    lines = [
        f"workload {name}  seed {seed}",
        f"python {platform.python_version()}  cpu {cpu_model()}  nproc {os.cpu_count()}"
        f"  loadavg {load[0]:.2f} {load[1]:.2f} {load[2]:.2f}",
    ]
    for cls, group in instances.items():
        hs = [i.h for i in group]
        fp = hashlib.sha256("".join(i.text for i in group).encode()).hexdigest()[:16]

        def span(values):
            lo, hi = min(values), max(values)
            return str(lo) if lo == hi else f"{lo}-{hi}"

        lines.append(
            f"  class {cls:10s} x{len(group):<3d} n {span([h.n for h in hs])}  m {span([h.m for h in hs])}"
            f"  delta {span([h.max_degree for h in hs])}  rank {span([h.rank for h in hs])}  sha256 {fp}"
        )
    return lines


# ---------------------------------------------------------------- the run


def run_rounds(ops: list, seconds: float) -> tuple[list[list[dict]], list[float]]:
    """Whole rounds over the op list while another round still fits in
    ``seconds`` (at least one round); stops early only past
    ``max(3 * seconds, 60)``, so a run that has gone badly slow still ends
    well inside its 180 s.

    Every repetition of every op is one sample; whole rounds keep the
    mix of op kinds fixed whatever the machine's speed.
    """
    runs: list[list[dict]] = [[] for _ in ops]
    rounds: list[float] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start + statistics.mean(rounds) <= seconds:
        gc.collect()
        t0 = time.perf_counter()
        for op, mine in zip(ops, runs):
            mine.append(run_op(op))
            if time.perf_counter() - start > max(3 * seconds, 60):
                return runs, rounds
        rounds.append(time.perf_counter() - t0)
    return runs, rounds


def memory_pass(ops: list, per_group: int) -> tuple[list[tuple[str, int]], list[dict]]:
    """Peak traced allocation of each op, untimed: the first
    ``per_group`` library ops of every (kind, class) group of seeded
    instances.  Tracing allocations slows these ops about tenfold, so
    the sentinels (the br30 tree alone would take a minute) stay out."""
    taken: dict[str, int] = {}
    peaks, samples = [], []
    tracemalloc.start()
    try:
        for op in ops:
            if op.cli or op.inst.sentinel or taken.get(op.group, 0) >= per_group:
                continue
            taken[op.group] = taken.get(op.group, 0) + 1
            gc.collect()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            samples.append(run_op(op))
            peaks.append((op.group, tracemalloc.get_traced_memory()[1] - base))
    finally:
        tracemalloc.stop()
    return peaks, samples


def traced_rounds(lib, ops: list, seconds: float) -> tuple[dict, list[dict], list[str]]:
    """Untraced and traced rounds in turn while another pair fits in
    ``seconds`` (at least one pair).  Self times are those of the
    fastest traced round; work counts must repeat exactly in every
    round."""
    tracer = tracing.Tracer(lib)
    samples: list[dict] = []
    plain: list[float] = []
    traced: list[float] = []
    per_round: list[dict] = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start + statistics.mean(plain) + statistics.mean(traced) <= seconds:
        gc.collect()
        t0 = time.perf_counter()
        samples += [run_op(op) for op in ops]
        plain.append(time.perf_counter() - t0)
        tracer.reset()
        tracer.install()
        try:
            gc.collect()
            t0 = time.perf_counter()
            samples += [run_op(op) for op in ops]
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        per_round.append(tracer.metrics())
    problems = [
        f"work count {key} changed between rounds: {per_round[0][key]} then {later[key]}"
        for later in per_round[1:] for key in tracing.EXACT_METRICS if later[key] != per_round[0][key]
    ]
    metrics = {
        key: (per_round[0][key] if key in tracing.EXACT_METRICS else min(r[key] for r in per_round))
        for key in tracing.METRICS
    }
    metrics["trace.overhead_ratio"] = min(traced) / min(plain)
    return metrics, samples, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the lines to
    print before it."""
    load = os.getloadavg()
    phases = {}
    t = time.perf_counter()
    setup_times = []
    for _ in range(1 if trace else SETUP_REPEATS):
        lib, instances, took = setup(name, seed, smoke)
        setup_times.append(took)
    phases["setup"], t = time.perf_counter() - t, time.perf_counter()
    lines = provenance(name, seed, instances, load)
    problems = [p for group in instances.values() for inst in group
                if inst.sentinel and (p := check_sentinel(inst))]
    work = make_ops(lib, name, instances)
    phases["expected answers"], t = time.perf_counter() - t, time.perf_counter()
    if trace:
        values, samples, more = traced_rounds(lib, work.ops, seconds)
        problems += more
        units = {k: u for k, (u, _) in tracing.METRICS.items()} | {"trace.overhead_ratio": "ratio"}
        lines += [f"  {key:42s} {value:14.4f} {units[key]}" for key, value in values.items()]
        phases["traced rounds"] = time.perf_counter() - t
    else:
        runs, rounds = run_rounds(work.ops, seconds)
        samples = [s for r in runs for s in r]
        phases["measure"], t = time.perf_counter() - t, time.perf_counter()
        lines.append(f"rounds {len(rounds)}  ops per round {len(work.ops)}"
                     f"  round_s {' '.join(f'{r:.2f}' for r in rounds)}")
        peaks, mem_samples = memory_pass(work.ops, MEM_PER_GROUP[name])
        phases["memory pass"], t = time.perf_counter() - t, time.perf_counter()
        values, counts = end_to_end(runs, setup_times, peaks)
        units = END_TO_END
        lines += [f"  {key:24s} {value:14.4f} {units[key]:5s} n={counts[key]}" for key, value in values.items()]
        lines += [f"  {kind + '_ms_p50':24s} {statistics.median(adj):14.4f} ms    n={len(adj)}"
                  f"  (as measured {statistics.median(raw):.4f} ms)"
                  for kind, (adj, raw) in by_kind(runs).items()]
        samples += mem_samples
        for probe in work.probes:
            p = run_op(probe, PROBE_CAP_S)
            lines.append(f"  probe {probe.kind} on {probe.inst.label}: {p['status']} after {p['ns'] / 1e9:.3f} s"
                         f" (cap {PROBE_CAP_S:.1f} s; not counted in attempted/failed)")
        phases["probes"] = time.perf_counter() - t
    lines.append("phases  " + "  ".join(f"{k} {v:.2f}s" for k, v in phases.items()))
    failed = [s for s in samples if s["status"] != "ok"]
    lines += [f"  FAILED {s['op'].kind} on {s['op'].inst.label}: {s['status']}" for s in failed[:20]]
    lines += [f"  PROBLEM {p}" for p in problems]
    wrong = any(not s["status"].startswith(("ok", "capped")) for s in samples)
    result = {
        "correct": not wrong and not problems,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in values.items()},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny instances, no sentinels")
    parser.add_argument("--report", action="store_true", help="every workload, untraced then traced")
    args = parser.parse_args(argv)
    if not args.report and args.workload is None:
        parser.error("--workload is required unless --report is given")
    jobs = ([(w, t) for w in SPECS for t in (False, True)] if args.report
            else [(args.workload, bool(args.trace))])
    try:
        for name, trace in jobs:
            result, lines = run_workload(name, args.seed, args.seconds, trace, args.smoke)
            print("\n".join(lines), flush=True)
            print(json.dumps(result), flush=True)
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The perf ledger: one command, seven workloads, end-to-end and per-layer numbers.

    python3 benchmarks/perf/run.py                       # all workloads, end to end
    python3 benchmarks/perf/run.py --trace               # ... plus the per-layer numbers
    python3 benchmarks/perf/run.py --workload query_sql --seed 3
    python3 benchmarks/perf/run.py --repeat 5 --out a.json
    python3 benchmarks/perf/run.py --compare a.json b.json

Every workload runs in a child process of its own, so caches and peak RSS
do not leak from one workload into the next.  With exactly one
``--workload`` the last line of standard output is the driver's JSON object
(``correct`` / ``attempted`` / ``failed`` / ``metrics``): the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The exit code is non-zero when an output was wrong, an op failed, or
``--compare`` found an end-to-end regression.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
CHILD_TIMEOUT = 170.0  # the driver allows a run 180 s

sys.path.insert(0, str(HERE))
import drivers  # noqa: E402
from clock import REFERENCE_SLICE_S  # noqa: E402
import ledger  # noqa: E402
import tracing  # noqa: E402
from layers import Layers, per_layer, run_probes, warn  # noqa: E402

WORKLOAD_NAMES = tuple(name for name, _ in ledger.WORKLOADS)


# --------------------------------------------------------------------------- #
# child: measure one workload
# --------------------------------------------------------------------------- #
def fingerprint() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"cpu": model or platform.processor(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version,
            "platform": platform.platform()}


def peak_rss_mb(forks_workers: bool) -> float:
    """This process, plus its largest reaped child where the workload forks
    workers (elsewhere the only child is the start-up probe of set-up).
    Read once, after the first round: the high-water mark of one cold round,
    whatever number of rounds the run has time for."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if forks_workers:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0  # Linux reports KiB


def one_round(driver, seed: int, workdir: str, recorder, sampled: bool):
    """setup (timed) -> run (timed) -> check -> teardown, from a cold state.
    ``sampled`` rounds (the gated run's) are cut by the calibration sampler;
    the traced run's are cut at phase boundaries only, so that nothing of
    the harness runs beside what its spans and ``wall.*`` rows time."""
    traced = recorder is not None
    if traced:
        recorder.install(warn)
        recorder.enabled = True
    api = drivers.Api(recorder.wrap if traced else None)
    rec = drivers.Round(recorder, driver.forks_workers)
    gc.collect()
    state = None
    try:
        with rec if sampled else nullcontext():
            start, start_cpu = time.perf_counter(), rec.calibrated()
            # Start-up is part of set-up: a fresh interpreter importing what the
            # workload's caller imports, so work moved to import time shows.
            subprocess.run([sys.executable, "-c", f"import {driver.imports}"], check=True,
                           env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
            state = driver.setup(api, seed, workdir)
            rec.setup, rec.setup_wall = rec.calibrated() - start_cpu, time.perf_counter() - start
            if traced:
                rec.setup_spans = recorder.drain()
            start_cpu, start_raw, start = rec.calibrated(), rec.cpu(), rec.clock()
            driver.run(api, state, rec)
            rec.wall = rec.clock() - start
            rec.raw_cpu_s = rec.cpu() - start_raw
            rec.cpu_s = rec.calibrated() - start_cpu
        if traced:
            recorder.enabled = False
            rec.spans = recorder.drain()
        driver.finish(api, state, rec)
    finally:
        if traced:
            recorder.enabled = False
            recorder.uninstall()
        if state is not None:
            driver.teardown(state)
    rec.state = state
    return rec, api


def end_to_end(rounds, driver, peak_rss: float) -> dict:
    """The gated numbers: medians over the run's rounds, on the CPU clock."""
    def per_op_ms(phase):
        return ledger.median([rec.phase_cpu[phase] / rec.phase_ops[phase] for rec in rounds]) * 1e3

    values = {
        "setup_s": ledger.median([rec.setup for rec in rounds]),
        "cpu_s": ledger.median([rec.cpu_s for rec in rounds]),
        "cold_cpu_ms": per_op_ms(driver.cold_phase),
        "warm_cpu_ms": per_op_ms(driver.warm_phase),
        "peak_rss_mb": peak_rss,
    }
    return {metric.name: {"value": values[metric.name], "unit": metric.unit,
                          "n": 1 if metric.name == "peak_rss_mb" else len(rounds)}
            for metric in ledger.END_TO_END}


def wall_clock(rounds) -> dict:
    """The same untraced rounds on the wall clock (the ungated ``wall.*`` rows)."""
    def pooled(kind):
        return [sample for rec in rounds for sample in rec.samples.get(kind, ())]

    def throughput(rec):
        phase = rec.phases.get("throughput")
        if phase:  # the service's stream: every class but the two probe phases
            return sum(len(s) for kind, s in rec.samples.items() if kind not in ("warm", "cold")) / phase
        return rec.attempted / rec.wall

    cold, warm = pooled("cold"), pooled("warm")
    return {
        "wall.setup_s": ledger.median([rec.setup_wall for rec in rounds]),
        "wall.round_s": ledger.median([rec.wall for rec in rounds]),
        "wall.ops_per_s": ledger.median([throughput(rec) for rec in rounds]),
        "wall.cold_p50_ms": ledger.median(cold) * 1e3,
        "wall.warm_p50_ms": ledger.median(warm) * 1e3,
        "wall.warm_p95_ms": ledger.percentile(warm, 0.95) * 1e3,
    }


def run_child(args) -> int:
    """Measure one workload in this process; print one JSON document."""
    sys.path.insert(0, str(ROOT / "src"))
    if not args.trace and hasattr(os, "sched_setaffinity"):
        # The gated run keeps the whole process tree on one core: the two
        # cores of the reference box change speed independently, and the
        # calibration slices can only vouch for the core they run on.  The
        # traced run is left alone; its wall-clock rows see both cores.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # Temporary files of sqlite and multiprocessing stay inside the checkout.
    os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = str(workdir)
    started = time.perf_counter()  # the origin of the trace's timestamps
    try:
        import repro
    except ImportError:
        shutil.rmtree(workdir, ignore_errors=True)
        raise
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"perf: repro was imported from {repro.__file__}, not from this checkout's src/")
    driver = drivers.build(args.scale, min(os.cpu_count() or 1, 4))[args.workload[0]]
    recorder = tracing.Recorder() if args.trace else None
    plain, traced, api, peak = [], [], None, 0.0
    deadline = time.perf_counter() + args.seconds
    try:
        # Whole rounds (set-up, timed section, gate, teardown) until the time is up.
        while time.perf_counter() < deadline or not plain or (recorder and not traced):
            tracing_now = recorder is not None and len(plain) > len(traced)
            rec, api = one_round(driver, args.seed, str(workdir), recorder if tracing_now else None,
                                 sampled=not args.trace)
            peak = peak or peak_rss_mb(driver.forks_workers)
            # Only the probes read a round's outputs, and only the last
            # traced round's; holding more would count as the program's RSS.
            if not tracing_now:
                rec.release()
                plain.append(rec)
            else:
                if traced:
                    traced[-1].release()
                traced.append(rec)
        probes = run_probes(driver, api, traced[-1], args.seed, str(workdir)) if traced else {}
        if traced:
            tracing.write_jsonl(OUT / f"trace-{args.workload[0]}-seed{args.seed}.jsonl",
                                [span for rec in traced for span in rec.setup_spans + rec.spans], started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = plain + traced
    # What one calibration slice took, at the median: how fast the box ran.
    calibration = ledger.median([value for rec in plain for value in rec.slices])
    failures = [failure for rec in rounds for failure in rec.failures]
    attempted = sum(rec.attempted for rec in rounds)
    for failure in failures[:20]:
        warn(failure)
    document = {
        "workload": args.workload[0], "seed": args.seed, "seconds": args.seconds, "scale": args.scale,
        "rounds": len(plain), "traced_rounds": len(traced),
        "attempted": attempted, "failed": len(failures), "correct": not failures,
        "failed_share": len(failures) / attempted,
        "end_to_end": end_to_end(plain, driver, peak),
        "per_layer": (per_layer(driver, Layers(traced, plain, probes, recorder.missing),
                                {**wall_clock(plain), "calibration_s": calibration,
                                 "calibration.speed": REFERENCE_SLICE_S / calibration})
                      if traced else None),
        "phases_s": {name: ledger.median([rec.phases[name] for rec in plain]) for name in plain[0].phases},
        # round by round: the timed section on the three clocks, and how fast the
        # box ran (1 = the reference box at full speed) while it was measured
        "by_round": {"cpu_s": [rec.cpu_s for rec in plain], "raw_cpu_s": [rec.raw_cpu_s for rec in plain],
                     "wall_s": [rec.wall for rec in plain],
                     "speed": [REFERENCE_SLICE_S / ledger.median(rec.slices) for rec in plain]},
        "calibration_s": calibration, "fingerprint": fingerprint(),
        "failures": failures[:20],
    }
    print(json.dumps(document))
    return 0 if not failures else 1


# --------------------------------------------------------------------------- #
# parent: spawn children, report, repeat, compare
# --------------------------------------------------------------------------- #
def spawn(workload: str, args, trace: int) -> dict | None:
    command = [sys.executable, str(HERE / "run.py"), "--child", "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace), "--scale", args.scale]
    # A fixed hash seed: set and dict orders of strings repeat from run to run.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, start_new_session=True,
                             env={**os.environ, "PYTHONHASHSEED": "0"})
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        warn(f"{workload}: no result within {CHILD_TIMEOUT:.0f} s; killing the run")
        stdout = ""
    finally:
        try:  # the child's own workers live in its session; leave none behind
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def measure_set(args) -> dict | None:
    """One full set: every selected workload, untraced and (if asked) traced."""
    results = {}
    for workload in args.workload:
        document = None
        if args.trace in ("0", "both"):
            document = spawn(workload, args, 0)
            if document is None:
                return None
        if args.trace in ("1", "both"):
            traced = spawn(workload, args, 1)
            if traced is None:
                return None
            if document is None:
                document = traced
            else:
                document["per_layer"] = traced["per_layer"]
                document["traced_rounds"] = traced["traced_rounds"]
                for key in ("attempted", "failed"):
                    document[key] += traced[key]
                document["correct"] = document["correct"] and traced["correct"]
                document["failures"] += traced["failures"]
        results[workload] = document
    return results


def print_report(results: dict) -> None:
    for workload, document in results.items():
        print(f"\n== {workload}  (seed {document['seed']}, {document['rounds']} rounds, "
              f"{document['attempted']} ops, failed_share {document['failed_share']:.4f})")
        for name, cell in document["end_to_end"].items():
            print(f"  {name:<34} {cell['value']:>14.4f} {cell['unit']:<6} n={cell['n']}")
        for name, cell in (document.get("per_layer") or {}).items():
            value = "null" if cell["value"] is None else f"{cell['value']:.4f}"
            print(f"  {name:<34} {value:>14} {cell['unit']}")


def contract_line(document: dict, trace: str) -> str:
    cells = document["per_layer"] if trace == "1" else document["end_to_end"]
    # A layer that is not on this workload's path spent no time and did no
    # work there; the driver's line has numbers only, so it reads 0.
    metrics = {name: {"value": 0.0 if cell["value"] is None else cell["value"], "unit": cell["unit"]}
               for name, cell in cells.items()}
    return json.dumps({"correct": document["correct"], "attempted": document["attempted"],
                       "failed": document["failed"], "metrics": metrics})


def summarise(sets: list[dict], args) -> dict:
    """The JSON result: per workload and metric the median, quartiles, spread
    and every set's value; ``--compare`` reads two of these."""
    bounds = {metric.name: metric.bound for metric in ledger.END_TO_END}
    workloads = {}
    for name, first in sets[0].items():
        documents = [results[name] for results in sets]
        entry = {key: first[key] for key in ("rounds", "traced_rounds", "phases_s", "by_round")}
        entry["attempted"] = sum(d["attempted"] for d in documents)
        entry["failed"] = sum(d["failed"] for d in documents)
        entry["failed_share"] = entry["failed"] / entry["attempted"]
        entry["failures"] = [failure for d in documents for failure in d["failures"]][:20]
        for group in ("end_to_end", "per_layer"):
            rows = entry[group] = {}
            for metric, cell in (first.get(group) or {}).items():
                values = [d[group][metric]["value"] for d in documents]
                row = rows[metric] = {"unit": cell["unit"], "samples": values}
                if "n" in cell:
                    row["n"] = cell["n"]
                if None in values:
                    row["median"] = None
                    continue
                row["median"], row["q1"], row["q3"], row["spread"] = ledger.quartile_spread(values)
                if metric in bounds:
                    row["bound"] = bounds[metric]
        workloads[name] = entry
    first = next(iter(sets[0].values()))
    return {"schema": 1, "claim": None, "seed": args.seed, "seconds": args.seconds, "scale": args.scale,
            "repeat": len(sets), "fingerprint": first["fingerprint"],
            "calibration_s": ledger.median([d["calibration_s"] for results in sets for d in results.values()]),
            "workloads": workloads}


def print_summary(result: dict) -> None:
    for workload, entry in result["workloads"].items():
        print(f"\n== {workload}  ({result['repeat']} sets)")
        print(f"  {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>7}")
        for group in ("end_to_end", "per_layer"):
            for name, row in entry[group].items():
                if row["median"] is None:
                    continue
                bound = f"{row['bound']:.2f}" if "bound" in row else ""
                flag = "  > bound" if row["spread"] > row.get("bound", float("inf")) else ""
                print(f"  {name:<34} {row['median']:>12.4f} {row['q1']:>12.4f} {row['q3']:>12.4f} "
                      f"{row['spread']:>8.3f} {bound:>7}{flag}")


def compare(path_a: str, path_b: str) -> int:
    """Per-workload, per-metric delta table of B against the base A."""
    a, b = (json.loads(Path(path).read_text())["workloads"] for path in (path_a, path_b))
    better = {m.name: m.better for m in ledger.END_TO_END + ledger.PER_LAYER}
    regressions = 0
    for workload in a:
        if workload not in b:
            continue
        print(f"\n== {workload}   (base: {path_a})")
        print(f"  {'metric':<34} {'base':>12} {'new':>12} {'new/base':>9}  verdict")
        for group in ("end_to_end", "per_layer"):
            for name, base in a[workload][group].items():
                new = b[workload][group].get(name)
                if new is None or base["median"] is None or new["median"] is None:
                    continue
                ratio = new["median"] / base["median"] if base["median"] else float("nan")
                verdict = ""
                if group == "end_to_end":
                    disjoint = (min(new["samples"]) > max(base["samples"])
                                or max(new["samples"]) < min(base["samples"]))
                    if max(base["spread"], new["spread"]) > base["bound"] and not disjoint:
                        verdict = "unresolved (spread > bound)"
                    elif ledger.worse_by(better[name], base["median"], new["median"]) > base["bound"]:
                        verdict = f"REGRESSION (worse by > {base['bound']:.0%} of the base)"
                        regressions += 1
                    else:
                        verdict = "ok"
                print(f"  {name:<34} {base['median']:>12.4f} {new['median']:>12.4f} {ratio:>9.3f}  {verdict}")
    print(f"\n{regressions} end-to-end regression(s)")
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="workload to run (repeatable; default: all seven)")
    parser.add_argument("--seed", type=int, default=0, help="input seed (0 = the tables as committed)")
    parser.add_argument("--seconds", type=float, default=13.0, help="run whole rounds for this many seconds")
    parser.add_argument("--trace", nargs="?", const="both", default="0", choices=("0", "1", "both"),
                        help="1: the traced run (per-layer); bare --trace: untraced, then traced")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--repeat", type=int, default=1, help="run N full sets; report medians and spreads")
    parser.add_argument("--out", help="write the JSON result here (default: benchmarks/perf/out/result.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    single = args.workload is not None and len(args.workload) == 1
    args.workload = args.workload or list(WORKLOAD_NAMES)
    if args.child:
        args.trace = args.trace == "1"
        return run_child(args)

    sets = []
    for _ in range(args.repeat):
        results = measure_set(args)
        if results is None:
            print("perf: a workload produced no result", file=sys.stderr)
            return 2
        sets.append(results)
        print_report(results)
    result = summarise(sets, args)
    if args.repeat > 1:
        print_summary(result)
    out = Path(args.out) if args.out else OUT / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"\nwrote {out}")
    if single and args.repeat == 1:
        print(contract_line(sets[0][args.workload[0]], args.trace))
    return 0 if all(d["correct"] for results in sets for d in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

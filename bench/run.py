"""plenax benchmark: closed-loop workloads, timed end to end and per module.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

With --trace 0 it reports the end-to-end metrics. With --trace 1 it
alternates traced and untraced iterations and reports the per-layer
metrics and the tracing overhead. --seconds 0 runs a single gated
iteration after set-up. The last line of standard output is one JSON
object; the full record, with the SHA-256 of every input and output, goes
to .bench_work/results/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer, instrument, summarize

# One thread everywhere; set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SETUPS = 3

# The metric names and units the benchmark reports are the ones it declares.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
WORKLOAD_NAMES = [w["name"] for w in DECLARED["workloads"]]
# Printed with every run and kept in the record, but not declared: each
# applies to some workloads only, varies with the seed's scene, or reads 0
# at this commit (README.md).
SUMMARY = {
    "samples": "count",
    "raw_mpx_per_s": "Mpx/s",
    "failed_ratio": "ratio",
    "disp_rmse_px": "px",
    "depth_rel_err.p50": "ratio",
    "oracle_margin_max": "ratio",
}


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment() -> dict:
    import numpy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower()}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "caches": caches,
    }


def run_loop(workload, seconds: float, reference: dict, record: dict, tracer=None):
    """Closed loop for `seconds` of wall time, at least one iteration.

    With a tracer, iterations alternate traced and untraced, starting
    traced, so both kinds see the same machine state and their difference
    is the tracing overhead. Each iteration is gated after its clock stops;
    one whose outputs are missing, malformed or differ from the warm-up's
    counts as failed. Returns untraced and traced times in ms, and the
    per-layer totals of each traced iteration.
    """
    untraced, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        workload.clear_outputs()
        failure = None
        traced_now = tracer is not None and len(traced) <= len(untraced)
        with instrument(tracer) if traced_now else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                if traced_now:
                    with tracer.span("bench.iteration"):
                        workload.iterate(tracer)
                else:
                    workload.iterate()
            except Exception as exc:  # a failed iteration is counted, not fatal
                failure = f"{type(exc).__name__}: {exc}"
            elapsed_ms = 1e3 * (time.perf_counter() - start)
        if traced_now:
            traced.append(elapsed_ms)
            layers.append(summarize(tracer.take()))
        else:
            untraced.append(elapsed_ms)
        if failure is None:
            try:
                if workload.check() != reference:
                    failure = "outputs differ from the warm-up's"
            except Exception as exc:  # the gate's verdict on this iteration
                failure = f"{type(exc).__name__}: {exc}"
        if failure is not None:
            record["failed"] += 1
            record["failures"].append(failure)
        if time.perf_counter() >= deadline:
            return untraced, traced, layers


def per_layer_metrics(layers: list[dict], traced_ms: list[float], untraced_ms: list[float]):
    """Median over traced iterations of each per-layer total; 0 if never run."""
    for it in layers:
        for measure in ("checks", "checks_failed"):
            it[f"presets.{measure}"] = it.get(f"presets.run_factory_checks.{measure}", 0) + it.get(
                f"presets.run_consistency_checks.{measure}", 0
            )
        if it.get("disparity.block_match.ms"):
            it["disparity.block_match.mcells_per_s"] = it["disparity.block_match.mcells"] / (
                it["disparity.block_match.ms"] / 1e3
            )
    metrics = {name: statistics.median(it.get(name, 0.0) for it in layers) for name in PER_LAYER}
    metrics["trace.iter_ms.p50"] = statistics.median(traced_ms)
    metrics["trace.overhead_ms"] = statistics.median(traced_ms) - statistics.median(untraced_ms)
    return metrics


def set_up(name: str, seed: int, directory: Path, problems: list):
    """One set-up: seeded inputs, any input render, one gated warm-up iteration.

    Returns the workload, the set-up's wall time in s, the warm-up's in ms,
    and the SHA-256 of the inputs and of the warm-up's outputs (None when
    the warm-up failed).
    """
    import workloads

    directory.mkdir(parents=True)
    workload = workloads.WORKLOADS[name](ROOT, seed)
    start = time.perf_counter()
    workload.setup(directory)
    elapsed = time.perf_counter() - start
    inputs = {
        str(p.relative_to(directory)): workloads.sha256_file(p)
        for p in sorted(directory.rglob("*")) if p.is_file()
    }
    start = time.perf_counter()
    try:
        workload.iterate()
        outputs = workload.check()
    except Exception as exc:  # reported as a problem of the run
        outputs = None
        problems.append(f"warm-up: {type(exc).__name__}: {exc}")
    warm_s = time.perf_counter() - start
    return workload, elapsed + warm_s, 1e3 * warm_s, inputs, outputs


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".bench_work" / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    problems = []
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(), "failed": 0, "failures": problems,
    }
    try:
        setups = [set_up(name, seed, work / f"setup{k}", problems) for k in range(SETUPS)]
        workload, _, warm_ms, inputs, reference = setups[-1]
        if any(s[3:] != (inputs, reference) for s in setups):
            problems.append("set-ups from one seed gave different inputs or outputs")
        record.update(
            why=workload.why,
            setup_s=[s[1] for s in setups],
            inputs_sha256=inputs,
            outputs_sha256=reference or {},
        )

        untraced, traced, layers = run_loop(
            workload, seconds, reference, record, Tracer() if trace else None
        )
        times = untraced or [warm_ms]  # one traced iteration when untimed
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record["iter_ms"] = times
        record["attempted"] = len(untraced) + len(traced)
        metrics = {
            "setup_s": statistics.median(record["setup_s"]),
            "iter_ms.p50": statistics.median(times),
            "iter_ms.p90": percentile(times, 90),
            "peak_rss_mb": peak_rss_mb,
            "samples": len(times),
            "failed_ratio": record["failed"] / record["attempted"],
        }
        if workload.raw_mpx is not None:
            metrics["raw_mpx_per_s"] = workload.raw_mpx / (statistics.mean(times) / 1e3)
        try:
            metrics.update(workload.quality())
        except Exception as exc:  # broken outputs: no quality figures
            problems.append(f"quality: {type(exc).__name__}: {exc}")
        record["metrics"] = metrics

        if trace:
            record["per_layer"] = per_layer_metrics(layers, traced, times)
            record["traced_iter_ms"] = traced
        record["correct"] = not problems
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def digest(hashes: dict) -> str:
    lines = "".join(f"{k} {v}\n" for k, v in sorted(hashes.items()))
    return hashlib.sha256(lines.encode()).hexdigest()


def print_record(record: dict) -> None:
    env = record["environment"]
    print(f"== {record['workload']} (seed {record['seed']}): {record['why']}")
    print(
        f"   nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
        f"caches {' '.join(f'{k}={v}' for k, v in env['caches'].items())}"
    )
    print(f"   inputs  sha256 {digest(record['inputs_sha256'])} ({len(record['inputs_sha256'])} files)")
    print(f"   outputs sha256 {digest(record['outputs_sha256'])} ({len(record['outputs_sha256'])} files)")
    for key, unit in {**END_TO_END, **SUMMARY}.items():
        value = record["metrics"].get(key)
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"   {key:<20} {shown:>14} {unit}")
    for key, value in record.get("per_layer", {}).items():
        print(f"   {key:<44} {value:>12.6g} {PER_LAYER[key]}")
    for failure in record["failures"][:5]:
        print(f"   FAILED: {failure}")


def result_line(record: dict, trace: bool) -> dict:
    chosen = record["per_layer"] if trace else record["metrics"]
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        # A part run by name lacks the declared figures its parts do not make.
        "metrics": {k: {"value": chosen[k], "unit": units[k]} for k in units if k in chosen},
    }


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True,
        help=f"one of {', '.join(WORKLOAD_NAMES)} (declared), a part of one, or all",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")

    if not (ROOT / "src" / "plenax" / "__init__.py").is_file():
        print(f"error: no plenax sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="ascii")
    print_record(record)
    print(f"   record: {path.relative_to(ROOT)}")
    print(json.dumps(result_line(record, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Whole-model benchmark of the VS-Quant integer engine and serving stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload engine-b16 --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

- ``engine-b16``: closed loop, one thread, ``IntegerEngine`` called
  directly at batch 16, MiniResNet and MiniBERT-base alternating,
  W4/A8 S4/S6.
- ``http-b1``: one closed-loop ``GatewayClient`` sending batch-1 requests
  through ``serve_gateway`` at its defaults, W4/A4 S4/S4.
- ``pool-b1``: one closed-loop caller sending batch-1 requests through
  ``ModelRegistry`` routing into one process replica per model, W4/A4
  S4/S4: worker IPC and the batcher, no HTTP.

``--trace 0`` prints the end-to-end metrics. ``throughput_sps``,
``*.p50_ms`` and ``*.tail_ms`` count only the calls that ended in the
one-second windows in which the host stole the least CPU time
(``/proc/stat``): the least-stolen third on the serving workloads, three
quarters on engine-b16. ``--trace 1`` prints the
per-layer metrics: it runs the workload in quarters (untraced, traced,
traced, untraced), takes layer times from the traced spans and the
tracing overhead from the ratio of the two halves, then times every
execution backend on both models.
Every reply is checked byte for byte against a batch-1 ``integer``
reference. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Each run works in a
fresh ``.perfbench-work/`` directory (kernel cache, artifacts, temp
files) that it deletes on exit; traced runs leave their spans in
``.perfbench-traces/``.
"""

import time

T_PROC0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-ups per untraced run (this process plus fresh child processes);
#: ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Phase order of a traced run (False: untraced quarter, True: traced).
TRACE_ORDER = (False, True, True, False)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of each live child (MiB)."""
    pids = [os.getpid()]
    for task in Path("/proc/self/task").iterdir():
        try:
            pids += [int(p) for p in (task / "children").read_text().split()]
        except OSError:
            continue
    kib = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                kib += int(line.split()[1])
    return kib / 1024.0


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def set_up(wl, full_references: bool) -> float:
    """Build, reference, start and warm the workload; returns ``setup_s``.

    Set-up runs from process start to the first verified reply of every
    model, minus the time spent computing the reference outputs.
    """
    wl.build()
    t0 = time.perf_counter()
    wl.references(None if full_references else 1)
    ref_s = time.perf_counter() - t0
    wl.start()
    wl.warm_up()
    return time.perf_counter() - T_PROC0 - ref_s


def end_to_end(wl, phase, setup_s: float) -> tuple[dict, list[str]]:
    import numpy as np

    from vsbench.inputs import MODELS
    from vsbench.stats import STEAL_WINDOW_S, percentile, quiet_windows, tail_percentile

    metrics, notes = {}, []
    metrics["setup_s"] = _metric(setup_s, "s")
    metrics["throughput_sps"] = _metric(phase.quiet_throughput(wl.quiet_share), "samples/s")
    for m in MODELS:
        lat = phase.quiet_latency_ms(m, wl.quiet_share)
        metrics[f"{m}.p50_ms"] = _metric(percentile(lat, 50), "ms")
        metrics[f"{m}.tail_ms"] = _metric(percentile(lat, wl.tail_q), "ms")
        notes.append(f"{m}.tail_ms is p{wl.tail_q:g} of {lat.size} of {len(phase.latency_ms[m])}"
                     f" samples (the count alone would now pick p{tail_percentile(lat.size):g})")
    ticks = np.diff([n for _, n in phase.steal])
    quiet = quiet_windows(phase.steal, wl.quiet_share)
    notes.append(f"host steal per {STEAL_WINDOW_S:g} s window: median {np.median(ticks):g},"
                 f" max {ticks.max()} ticks; {int(quiet.sum())} of {quiet.size} windows counted")
    metrics["success_rate"] = _metric(1.0 - phase.failed / phase.attempted, "fraction")
    metrics["peak_rss_mb"] = _metric(peak_rss_mb(), "MiB")
    return metrics, notes


def per_layer(wl, plain, traced, tracer, seed: int) -> tuple[dict, list[str]]:
    from vsbench import workloads as W

    records = tracer.records()
    layers = {
        "quant.ptq.quantize_s": ("s", wl.timings["quantize_s"]),
        "deploy.save_s": ("s", wl.timings["save_s"]),
        "deploy.load_s": ("s", wl.timings["load_s"]),
        "compile.compiles": ("count", wl.compile_stats["compiles"]),
        "compile.compile_s": ("s", wl.compile_stats["compile_s"]),
    }
    layers.update(W.forward_metrics(records))
    layers.update(wl.layer_metrics({"plain": plain, "traced": traced}, records))
    layers["bench.trace_overhead"] = ("ratio", W.trace_overhead(plain, traced))
    notes = wl.budget(traced, layers)
    trace_dir = ROOT / ".perfbench-traces"
    trace_dir.mkdir(exist_ok=True)
    tracer.dump(trace_dir / f"{wl.name}-seed{seed}.npz")
    return {k: _metric(v, unit) for k, (unit, v) in layers.items()}, notes


def run(args, work: Path) -> dict | None:
    from vsbench.trace import Tracer
    from vsbench.stats import MIN_BEYOND
    from vsbench.workloads import WORKLOADS, Phase, backend_table

    tracer = Tracer() if args.trace else None
    wl = WORKLOADS[args.workload](args.seed, work, tracer)
    try:
        if tracer is not None:
            tracer.enabled = True
        setup_s = set_up(wl, full_references=True)
        if args.trace:
            # Untraced, traced, traced, untraced: drift over the run cancels
            # out of the traced/untraced ratio.
            quarters = [wl.measure(args.seconds / 4, traced=t) for t in TRACE_ORDER]
            tracer.enabled = False
            plain = Phase.merged([q for q, t in zip(quarters, TRACE_ORDER) if not t])
            traced = Phase.merged([q for q, t in zip(quarters, TRACE_ORDER) if t])
            phases = (plain, traced)
        else:
            phases = (wl.measure(args.seconds, traced=False),)
            thin = wl.thin_tails(phases[0])
            if thin:
                print(f"invalid run: fewer than {MIN_BEYOND} samples beyond p{wl.tail_q:g}"
                      f" for {', '.join(thin)}", file=sys.stderr)
                return None
            metrics, notes = end_to_end(wl, phases[0], setup_s)
        failed = sum(ph.failed for ph in phases)
        attempted = sum(ph.attempted for ph in phases)
        if args.trace:
            metrics, notes = per_layer(wl, plain, traced, tracer, args.seed)
    finally:
        wl.close()
    if args.trace:
        table, forwards, mismatches = backend_table(args.seed, work / "table")
        metrics.update({k: _metric(v, unit) for k, (unit, v) in table.items()})
        attempted += forwards
        failed += mismatches
    else:
        repeats = [setup_s] + [_setup_in_child(args) for _ in range(SETUP_REPEATS - 1)]
        metrics["setup_s"] = _metric(statistics.median(repeats), "s")
        notes.append("setup_s is the median of " + ", ".join(f"{s:.3f}" for s in repeats))
    for line in notes:
        print("#", line)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _setup_in_child(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=150, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("engine-b16", "http-b1", "pool-b1"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    os.environ.update(
        REPRO_KERNEL_CACHE=str(work / "kernels"),
        REPRO_ARTIFACT_DIR=str(work / "artifacts"),
        TMPDIR=str(work / "tmp"),
    )
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    repro_log = logging.getLogger("repro")
    repro_log.addHandler(logging.NullHandler())  # keep library INFO lines off the console
    repro_log.setLevel(logging.WARNING)
    try:
        if args.setup_only:
            from vsbench.workloads import WORKLOADS

            wl = WORKLOADS[args.workload](args.seed, work, None)
            try:
                print(set_up(wl, full_references=False))
            finally:
                wl.close()
            return 0
        result = run(args, work)
        if result is None:
            return 3
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())

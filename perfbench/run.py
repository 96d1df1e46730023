"""The cohint benchmark.

    python3 perfbench/run.py --workload {gl3-kernel,sweep,type-a-strata}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; it needs nothing beyond the standard library
and the checkout's ``src/``.  Each pass over a workload's reports runs in a
fresh single-threaded worker process (``worker.py``), one at a time, so every
pass pays the process-level caches a CLI user pays.  Passes repeat while the
next one is expected to end within ``--seconds`` (at least one pass).  With
``--trace 0``, set-up (interpreter start, ``import cohint``, input generation)
is measured on every pass and on ``SETUP_PROBES`` extra workers that stop
after set-up.

With ``--trace 0`` the result holds the end-to-end metrics of
``BENCHMARK.json``: medians over the passes (set-up: over the workers).  Pass
and report times are reference seconds, corrected for the drift of the host's
CPU speed (see ``SpeedSampler`` in ``worker.py``); the unscaled pass time is
printed beside them.  Set-up time is unscaled.  With ``--trace 1`` the first
half of the time runs untraced passes and the second half traced ones, and the
result holds the per-layer metrics: medians over the traced passes, the
unscaled untraced pass time ``raw_wall_s``, and ``trace.overhead_s``, the
traced minus the untraced median pass time.  The spans of the last traced
pass are written to ``perfbench/.trace/``.

A report fails when it exits non-zero, when a ledger fails, when a ``strata``
report disagrees with the closed-form stratum and orbit counts, or when its
stdout SHA-256 differs from the one recorded in ``workloads.json`` (every
default-seed report, and the fixed catalog inputs on any seed).  The last
stdout line is the JSON result; the lines before it print every metric with
its unit and sample count, ``failed_frac`` and ``src_loc``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("gl3-kernel", "sweep", "type-a-strata")
SETUP_PROBES = 7
# Workers may write bytecode caches, so that after the untimed first set-up
# every set-up loads compiled modules, as an installed command would.
WORKER_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
# A run must end within 180 s; the rest is left for reporting.  The longest
# run is a traced gl3-kernel one: a whole untraced and a whole traced pass.
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(deadline: float, workload: str, seed: int, *flags: str) -> dict:
    """Run one worker to completion and return its JSON summary."""
    argv = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), *flags]
    spawned_at = monotonic()
    proc = subprocess.Popen(argv + ["--spawned-at", repr(spawned_at)],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=WORKER_ENV)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(flags)} on {workload} ran past the time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker on {workload} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def repeat(seconds: float, run) -> list[dict]:
    """Run once, then again while another run of the mean length so far
    still ends within ``seconds``."""
    start = monotonic()
    out = [run()]
    while (monotonic() - start) * (len(out) + 1) / len(out) <= seconds:
        out.append(run())
    return out


def src_loc() -> int:
    return sum(
        1 for path in sorted((ROOT / "src" / "cohint").glob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines() if line.strip()
    )


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, quartiles {q1:.4g}..{q3:.4g}"


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, list[float]]:
    """Per-pass samples of every end-to-end metric (set-up: per worker).  A
    pass has too few reports for any percentile above the median, so the
    high percentile of the report times is the slowest report of the pass."""
    times = [[r["seconds"] for r in p["reports"]] for p in passes]
    return {
        "wall_s": [p["wall_s"] for p in passes],
        "report_p50_s": [statistics.median(t) for t in times],
        "report_max_s": [max(t) for t in times],
        "peak_rss_mb": [p["maxrss_kb"] / 1024 for p in passes],
        "setup_s": setups,
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, list[float]]:
    """Per-traced-pass samples of the layer metrics.  That the counters
    repeat is checked across whole runs by ``check_counts.py``."""
    layers = [p["layers"] for p in traced]
    samples = {k: [layer[k] for layer in layers] for k in layers[0]}
    samples["raw_wall_s"] = [p["raw_wall_s"] for p in plain]
    samples["trace.overhead_s"] = [
        statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in plain)
    ]
    samples["src_loc"] = [src_loc()]
    return samples


def measure(args) -> tuple[dict[str, list[float]], list[dict]]:
    """Samples of the wanted metrics, and every pass run."""
    deadline = monotonic() + TIME_LIMIT_S

    def worker(*flags):
        return spawn(deadline, args.workload, args.seed, *flags)

    if not args.trace:
        worker("--setup-only")  # untimed: compiles the bytecode caches of a fresh checkout
        setups = [worker("--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
        passes = repeat(args.seconds, worker)
        return end_to_end(passes, setups + [p["setup_s"] for p in passes]), passes
    plain = repeat(args.seconds / 2, worker)
    (HERE / ".trace").mkdir(exist_ok=True)
    spans = HERE / ".trace" / f"{args.workload}-seed{args.seed}.tsv"
    traced = repeat(args.seconds / 2, lambda: worker("--trace", "--spans", str(spans)))
    return per_layer(plain, traced), plain + traced


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "cohint" / "cli.py").is_file():
        print(f"no cohint sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = config["per_layer" if args.trace else "end_to_end"]

    try:
        samples, passes = measure(args)
        metrics = {}
        for m in wanted:
            if m["name"] not in samples:
                raise BenchError(f"metric {m['name']} was not measured")
            metrics[m["name"]] = {"value": statistics.median(samples[m["name"]]),
                                  "unit": m["unit"]}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    reports = [r for p in passes for r in p["reports"]]
    failed = [r for r in reports if r["error"]]
    for r in failed[:10]:
        print(f"FAILED {r['key']}: {r['error']}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, {len(reports)} reports")
    for name, m in metrics.items():
        print(f"  {name:36} {m['value']:12.6g} {m['unit']:6} ({quartiles(samples[name])})")
    if not args.trace:
        raw = [p["raw_wall_s"] for p in passes]
        print(f"  {'wall_s unscaled':36} {statistics.median(raw):12.6g} {'s':6} "
              f"({quartiles(raw)}; information, not gated)")
        print(f"  {'src_loc':36} {src_loc():12d} {'lines':6} (information, not gated)")
    print(f"  {'failed_frac':36} {len(failed) / len(reports):12.6g} {'frac':6} "
          f"({len(failed)} of {len(reports)})")
    print(json.dumps({"correct": not failed, "attempted": len(reports),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

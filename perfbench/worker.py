"""One benchmark pass in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --spawned-at T
                                [--trace [--spans FILE]] [--setup-only]

The worker imports ``cohint`` from the checkout's ``src/``, generates and
writes the workload's inputs, and then runs every report of the pass through
the CLI entry point ``cohint.cli.main`` in this one process, as a library
caller looping over inputs would.  Each report's stdout is captured and
checked.  The worker prints one JSON summary line: the set-up time (from
``T``, the CLOCK_MONOTONIC reading its parent took just before starting it,
which is system-wide on Linux, to the first report), then the pass.  With
``--setup-only`` it stops after set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import signal
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import inputs  # noqa: E402  (the benchmark's own module, next to this file)


def load_golden() -> dict[str, str]:
    with open(HERE / "workloads.json", encoding="utf-8") as handle:
        recorded = json.load(handle)["workloads"]
    return {k: v for w in recorded.values() for k, v in w["sha256"].items()}


def import_cli():
    sys.path.insert(0, str(SRC))
    from cohint import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"cohint imported from {cli.__file__}, not from {SRC}")
    return cli


def check(report: inputs.Report, code: int, text: str, golden: dict, default_seed: bool) -> str:
    """Empty string when the report is correct, otherwise the reason."""
    if code != 0:
        return f"exit code {code}"
    digest = hashlib.sha256(text.encode()).hexdigest()
    if report.key in golden and golden[report.key] != digest:
        return f"stdout SHA-256 {digest} differs from the recorded {golden[report.key]}"
    if default_seed and report.key not in golden:
        return "no SHA-256 recorded for this default-seed report"
    try:
        parsed = json.loads(text)
    except ValueError:
        return "stdout is not a JSON report"
    if parsed.get("status") != "ok":
        return f"status {parsed.get('status')}"
    ledgers = {k: v for k, v in parsed.get("verification", {}).items() if k.endswith("_passed")}
    if report.command == "verify" and (len(ledgers) != 3 or not all(ledgers.values())):
        return f"ledgers {ledgers}"
    if report.expected_counts is not None:
        got = (parsed["strata_count"], parsed["orbit_count"])
        if got != report.expected_counts:
            return f"(strata, orbits) {got}, expected {report.expected_counts}"
    return ""


def write_inputs(reports, workdir: Path) -> list[str | None]:
    paths = []
    for i, report in enumerate(reports):
        path = None
        if report.document is not None:
            path = workdir / f"input-{i}.json"
            path.write_text(report.doc_text, encoding="utf-8")
        paths.append(str(path) if path else None)
    return paths


# The host's CPU speed drifts by up to a factor of two within seconds, the
# same for any code on the core at that moment, and a 2-vCPU VM has no quiet
# core to move to.  So while a pass runs, a SIGALRM handler times a
# short fixed loop every SAMPLE_PERIOD_S, and every report time is also given
# in reference seconds: its own time (handler time excluded) scaled by
# CALIBRATION_REFERENCE_S over the mean loop time sampled within
# SAMPLE_WINDOW_S of the report, leaving out the slowest and the fastest
# tenth of those samples.  The trimmed mean follows the share of the report
# spent at each speed, where a median would snap to one of them, and drops
# a stray sample.  The loop runs with the cyclic garbage collector off, so
# that its time does not depend on the program's heap.
# Samples are never taken back to back: a loop that runs right after itself
# finds its data in cache and reads fast.
# The reference is the loop's median time between reports on a 2-vCPU x86_64
# VM under CPython 3.11 while that host ran at the slower of the two speeds it
# switched between (the loop read about 2.2 ms or 1.3 ms), so reference
# seconds read close to seconds at that speed and up to 1.5x seconds at the
# faster one.
CALIBRATION_REFERENCE_S = 0.0023
SAMPLE_PERIOD_S = 0.1
SAMPLE_WINDOW_S = 0.2


def calibration_loop() -> float:
    """Seconds taken by a fixed run of small integer matrix products keyed
    into a dict.  Of the loops tried (this one, exact Fraction sums, tuple
    hashing alone) it tracked the speed of type-a-strata and sweep best."""
    start = time.perf_counter()
    m, g = ((0, 1, 0), (1, 0, 0), (0, 0, 1)), ((1, 0, 0), (0, 0, 1), (0, 1, 0))
    seen: dict = {}
    for _ in range(150):
        m = tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*g)) for row in m)
        seen[m] = seen.get(m, 0) + 1
    return time.perf_counter() - start


class SpeedSampler:
    """Samples (time, calibration loop seconds) from a periodic signal."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0  # seconds spent sampling, to subtract from report times

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.samples.append((start, calibration_loop()))
        finally:
            if collecting:
                gc.enable()
        self.spent += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def scale(self, start: float, end: float) -> float:
        lo, hi = start - SAMPLE_WINDOW_S, end + SAMPLE_WINDOW_S
        near = [s for t, s in self.samples if lo <= t <= hi]
        if not near:
            near = [min(self.samples, key=lambda ts: abs(ts[0] - start))[1]]
        near.sort()
        cut = len(near) // 10
        kept = near[cut:len(near) - cut]
        return CALIBRATION_REFERENCE_S * len(kept) / sum(kept)


def run_pass(cli, reports, paths) -> list[dict]:
    """Run every report through ``cli.main`` under a ``SpeedSampler``."""
    results, spans = [], []
    with SpeedSampler() as sampler:
        for report, path in zip(reports, paths):
            buffer = io.StringIO()
            spent = sampler.spent
            start = time.perf_counter()
            with contextlib.redirect_stdout(buffer):
                try:
                    code = cli.main(report.argv(path))
                except SystemExit as exc:  # argparse rejected the command line
                    code = exc.code if isinstance(exc.code, int) else 1
            end = time.perf_counter()
            seconds = end - start - (sampler.spent - spent)
            results.append({"exit": code, "stdout": buffer.getvalue(), "raw_seconds": seconds})
            spans.append((start, end))
    for r, (start, end) in zip(results, spans):
        r["seconds"] = r["raw_seconds"] * sampler.scale(start, end)
    return results


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="file to write the trace spans to")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cli = import_cli()
    reports = inputs.generate(args.workload, args.seed)
    golden = load_golden()
    with tempfile.TemporaryDirectory(prefix=".inputs-", dir=HERE) as tmp:
        paths = write_inputs(reports, Path(tmp))
        setup = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup}))
            return 0
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        results = run_pass(cli, reports, paths)

    default_seed = args.seed == inputs.DEFAULT_SEED
    for report, r in zip(reports, results):
        r["key"] = report.key
        r["error"] = check(report, r["exit"], r["stdout"], golden, default_seed)
        r["sha256"] = hashlib.sha256(r.pop("stdout").encode()).hexdigest()
    summary = {
        "setup_s": setup,
        "reports": results,
        "wall_s": sum(r["seconds"] for r in results),
        "raw_wall_s": sum(r["raw_seconds"] for r in results),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.check_expected(args.workload)
        summary["layers"] = tracer.metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the pilat command line, driven in process.

    python3 bench/run.py --workload queries --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload, as a table

One closed-loop client calls ``pilat.cli.main(argv)`` with stdout captured,
one request after another, repeating the workload's request list ("a pass")
while half of the next pass fits in ``--seconds``.  Every request's exit
code and stdout are checked.  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``).  Metric names and units are those of ``BENCHMARK.json``.
End-to-end timings are scaled to a reference host speed that is sampled
while they run (``speed.py``).  The line before the result records the
Python version, CPU count, git SHA, seed and the timings unscaled.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCES = BENCH / "references.json"

sys.path.insert(0, str(BENCH))
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_BATCH = 10  # fresh-interpreter imports before the first pass and after each pass
# The child times the speed kernel five times before and after the import,
# so the import time can be scaled to the reference speed like every timing.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[2]); import speed; "
                "k = speed.timed_kernels(5); sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import pilat.cli; d = time.perf_counter() - t; "
                "print(d, *k, *speed.timed_kernels(5))")

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


# -- environment ----------------------------------------------------------------


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        return lines[1]
    return "unknown"


def import_times(count: int) -> list[tuple[float, float]]:
    """(raw seconds, relative speed) for each of ``count`` fresh interpreters importing pilat.cli."""
    cmd = [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC), str(BENCH)]
    out = []
    for _ in range(count):
        seconds, *kernels = map(float, subprocess.run(cmd, check=True, capture_output=True,
                                                      text=True, timeout=120).stdout.split())
        out.append((seconds, speed.speed_of(kernels)))
    return out


def import_cli():
    sys.path.insert(0, str(SRC))
    import pilat.cli
    if Path(pilat.cli.__file__).resolve().parent != SRC / "pilat":
        raise ImportError(f"pilat imported from {pilat.cli.__file__}, not from {SRC}")
    return pilat.cli


def materialize(requests, workdir: Path) -> list[list[str]]:
    """Write the requests' files into ``workdir``; return argv with paths resolved."""
    workdir.mkdir(parents=True, exist_ok=True)
    written: dict[str, str] = {}
    for req in requests:
        for name, text in req.files.items():
            if name in written:
                if written[name] != text:
                    raise ValueError(f"two different contents for {name}")
                continue
            written[name] = text
            (workdir / name).write_text(text, encoding="utf-8")
    return [[str(workdir / a[1:]) if a.startswith("@") else a for a in req.argv]
            for req in requests]


# -- running and checking ---------------------------------------------------------


def run_pass(cli, argvs: list[list[str]], clock=perf_counter):
    """One pass: ((start, end), (start, end) of each request, (exit, stdout, escaped) each)."""
    spans: list[tuple[float, float]] = []
    outcomes: list[tuple[int | None, str, str | None]] = []
    gc.collect()
    start = clock()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        escaped = None
        t0 = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed request, not a failed run
            rc, escaped = None, type(exc).__name__
        spans.append((t0, clock()))
        outcomes.append((rc, out.getvalue(), escaped))
    return (start, clock()), spans, outcomes


def request_problems(req, outcome, refs: dict) -> list[str]:
    rc, out, escaped = outcome
    if escaped is not None:
        return [f"{escaped} escaped main()"]
    problems = []
    if not req.known_defect:
        ref = refs.get(req.key)
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        if ref is None:
            problems.append("no recorded reference")
        elif (rc, digest) != (ref["exit"], ref["sha256"]):
            problems.append(f"exit {rc} / stdout sha256 {digest[:12]} differ from the reference "
                            f"exit {ref['exit']} / {ref['sha256'][:12]}")
    if req.check is not None:
        reason = req.check(rc, out)
        if reason:
            problems.append(reason)
    return problems


class Tally:
    """Requests attempted and failed; failures other than known defects make the run incorrect."""

    def __init__(self, requests, refs: dict):
        self.requests = requests
        self.refs = refs
        self.attempted = self.failed = self.unexpected = 0
        self.stdout_bytes = 0

    def add(self, outcomes) -> None:
        self.attempted += len(outcomes)
        self.stdout_bytes = 0
        for req, outcome in zip(self.requests, outcomes):
            self.stdout_bytes += len(outcome[1].encode("utf-8"))
            problems = request_problems(req, outcome, self.refs)
            if not problems:
                continue
            self.failed += 1
            if not req.known_defect:
                self.unexpected += 1
                if self.unexpected <= 5:
                    print(f"FAIL {req.key}: {'; '.join(problems)}", file=sys.stderr)


def passes(cli, argvs, seconds: float, tally: Tally, probe=None, on_pass=None):
    """Run passes while half of the next one fits in ``seconds`` (at least one).

    The next pass is taken to last as long as the one before, so the passes
    end within half a pass of ``seconds``.  With a ``speed.Probe`` the host
    speed is sampled during each pass, and times are read from its clock.

    Returns, per pass, its (start, end) and the (start, end) of each request.
    """
    runs: list[tuple[tuple[float, float], list[tuple[float, float]]]] = []
    last = 0.0
    start = perf_counter()
    while not runs or perf_counter() - start + last / 2 <= seconds:
        with probe or contextlib.nullcontext():
            span, spans, outcomes = run_pass(cli, argvs, probe.clock if probe else perf_counter)
        if on_pass is not None:
            on_pass()
        last = span[1] - span[0]
        runs.append((span, spans))
        tally.add(outcomes)
        del outcomes   # so the next pass does not hold two passes' output
    return runs


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(cli, argvs, seconds: float, tally: Tally,
               setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """End-to-end metrics, and the same timings unscaled.

    ``setup`` holds (import seconds, relative speed) pairs and gains a batch
    after each pass.  Every timing is scaled to the reference speed (see
    ``speed.py``) by the host speed sampled while it ran; a request is scaled
    by the samples within half a second of it.  Each metric is the median
    over the passes, or over the imports, of the run.
    """
    probe = speed.Probe()
    runs = passes(cli, argvs, seconds, tally, probe,
                  on_pass=lambda: setup.extend(import_times(SETUP_BATCH)))
    walls, p50s, p99s = [], [], []
    for (a, b), spans in runs:
        walls.append((b - a) * probe.speed(a, b))
        lat_ms = [(t1 - t0) * probe.speed(t0, t1) * 1000 for t0, t1 in spans]
        p50s.append(percentile(lat_ms, 50))
        p99s.append(percentile(lat_ms, 99))
    metrics = {
        "setup_s": statistics.median(sec * rel for sec, rel in setup),
        "wall_s": statistics.median(walls),
        "latency_p50_ms": statistics.median(p50s),
        "latency_p99_ms": statistics.median(p99s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {
        "setup_s": statistics.median(sec for sec, _ in setup),
        "wall_s": statistics.median(b - a for (a, b), _ in runs),
        "speed": speed.speed_of(probe.kernels),
        "passes": len(runs),
    }
    return metrics, raw


def per_layer(cli, argvs, seconds: float, tally: Tally) -> tuple[dict, bool]:
    """Untraced passes for half the time, traced passes for the other half."""
    untraced = [b - a for (a, b), _ in passes(cli, argvs, seconds / 2, tally)]
    tracer = tracing.install()
    snaps: list[dict] = []
    try:
        traced = [b - a for (a, b), _ in passes(cli, argvs, seconds / 2, tally,
                                                on_pass=lambda: snaps.append(tracer.take()))]
    finally:
        tracer.uninstall()
    counts = [{s: (v["calls"], v["count"], v["hits"]) for s, v in snap.items()} for snap in snaps]
    steady = all(c == counts[0] for c in counts)
    if not steady:
        print("work counts differ between traced passes", file=sys.stderr)
    first = snaps[0]
    metrics = {}
    for name in PER_LAYER:
        span, field = name.rsplit(".", 1)
        if name == "cli.stdout_bytes":
            value = tally.stdout_bytes
        elif name == "trace.overhead_s":
            value = min(traced) - min(untraced)
        elif field == "self_s":
            value = statistics.median(snap[span]["self_s"] for snap in snaps)
        elif field == "calls":
            value = first[span]["calls"]
        elif field in ("yielded", "found"):
            value = first[span]["count"]
        else:  # hit_ratio
            calls = first[span]["calls"]
            value = first[span]["hits"] / calls if calls else 0.0
        metrics[name] = value
    return metrics, steady


# -- entry points ------------------------------------------------------------------


def run_one(args) -> int:
    if not args.trace:
        import_times(1)   # writes the bytecode; untimed
        setup = import_times(SETUP_BATCH)
    cli = import_cli()
    requests = workloads.requests_for(args.workload, args.seed)
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    workdir = BENCH / f"_work-{os.getpid()}"
    try:
        argvs = materialize(requests, workdir)
        tally = Tally(requests, refs)
        raw = None
        if args.trace:
            metrics, steady = per_layer(cli, argvs, args.seconds, tally)
            units = PER_LAYER
        else:
            (metrics, raw), steady = end_to_end(cli, argvs, args.seconds, tally, setup), True
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha(),
            "requests_per_pass": len(requests),
            "fail_ratio": tally.failed / tally.attempted, "unscaled": raw}
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": tally.unexpected == 0 and steady,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; print every metric with its unit."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        *_, meta_line, result_line = proc.stdout.strip().splitlines()
        meta, result = json.loads(meta_line)["meta"], json.loads(result_line)
        print(f"{name:8} " + " ".join(f"{k}={meta[k]}" for k in
                                      ("seed", "seconds", "python", "nproc", "git_sha")))
        if meta["unscaled"]:
            print(f"{name:8} unscaled " + " ".join(f"{k}={v:.6g}"
                                                   for k, v in meta["unscaled"].items()))
        rows = dict(result["metrics"])
        rows["fail_ratio"] = {"value": result["failed"] / result["attempted"], "unit": "ratio"}
        for metric, m in rows.items():
            print(f"{name:8} {metric:34} {m['value']:>16.6g} {m['unit']}")
        print(f"{name:8} {'correct':34} {str(result['correct']):>16}")
    return status


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.environ.pop("PILAT_MAX_N", None)   # it would replace every size cap
    if not (SRC / "pilat" / "cli.py").is_file():
        print(f"no pilat sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

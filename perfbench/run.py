"""Run one crossdial benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from the repository root: the program is imported from ./src.  The
load is a closed loop in one process: each unit of work starts when the
previous one has returned.  Set-up (imports in a fresh interpreter, input
generation, model preparation) is timed separately, five times each, and
the medians are reported.  The timed phase repeats the workload's unit until
the next unit would run past ``--seconds`` (always at least one unit).
``wall_s`` is the upper quartile of the unit wall times and ``tok_per_s``
the lower quartile of the units' throughputs, the same units' slow side: on
a shared host whose speed comes in short fast bursts over a steadier slow
state, that side repeats from run to run where the median does not.  A run
of one unit reports that unit.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the timed
phase untraced, then again, for as many units, under the span recorder,
checks the traced counts against the untraced run, and prints the per-layer
metrics (per unit) and the tracing overhead.  ``--smoke`` shrinks every
workload to seconds, for the benchmark's own test.

The last line of standard output is the result object; the line before it
records the environment.  The exit code is 2 when the program's source is
missing.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

_STARTED = time.perf_counter()

# Fixed before numpy is imported, so every run uses the same BLAS thread
# count whatever the host's default; the model's matrices are small (h=64).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
STATE_DIR = os.path.join(HERE, ".state")
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("study_ref", "train_long", "decode_bulk", "cli_pipeline")
END_TO_END = {"wall_s": "s", "setup_s": "s", "tok_per_s": "tok/s", "peak_rss_mb": "MB"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny inputs: every path in seconds")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _code_id(src: str) -> str:
    """Content hash of the package and the benchmark: keys the stored output digests."""
    h = hashlib.sha256()
    for folder in (os.path.join(src, "crossdial"), HERE):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _commit(root: str) -> str:
    """HEAD of the checkout, or "unknown" where it is not a git work tree."""
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _environment(np, root: str, code_id: str) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict form; the record says so
        blas = "unknown"
    return {
        "commit": _commit(root),
        "code_id": code_id,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
    }


_IMPORT_PROBE = "import time; t = time.perf_counter(); import numpy, crossdial; print(time.perf_counter() - t)"


def _import_seconds(src: str) -> float:
    """Import time of numpy and crossdial in a fresh interpreter, as a run pays it."""
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout)


def _host_probe(np) -> float:
    """Fixed work timed beside each unit; reported, never used to rescale."""
    start = time.perf_counter()
    a = np.full((48, 48), 0.5)
    for _ in range(100):
        a = np.tanh(a @ a * 0.02)
    total = 0
    for i in range(20000):
        total += i * i
    return time.perf_counter() - start


def _run_units(np, workload, prepared, seconds: float, count: int | None = None):
    """Closed loop: units back to back until the next would overrun ``seconds``."""
    samples = []
    began = time.perf_counter()
    while True:
        probe = _host_probe(np)
        start = time.perf_counter()
        result = workload.unit(prepared)
        wall = time.perf_counter() - start
        samples.append((wall, probe, result))
        if count is not None:
            if len(samples) >= count:
                return samples
        elif time.perf_counter() - began + wall > seconds:
            return samples


def _quartile(values, which: int) -> float:
    """Lower (0) or upper (2) quartile, ``statistics.quantiles`` inclusive; one value is its own."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[which]


class _Digests:
    """Output digests of earlier runs of the same code, workload, seed and scale."""

    def __init__(self, path: str):
        self.path = path
        try:
            with open(path, encoding="utf-8") as fh:
                self.known = json.load(fh)
        except FileNotFoundError:
            self.known = {}

    def check(self, key: str, digest: str) -> str | None:
        previous = self.known.get(key)
        if previous is None:
            self.known[key] = digest
            tmp = self.path + f".{os.getpid()}"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(self.known, fh, indent=1, sort_keys=True)
            os.replace(tmp, self.path)
            return None
        return None if previous == digest else f"output digest {digest[:12]} differs from earlier runs' {previous[:12]}"


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "crossdial", "__init__.py")):
        print(f"error: no crossdial source under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    import_start = time.perf_counter()
    import numpy as np

    import crossdial
    import tracer
    import workloads
    import_s = time.perf_counter() - import_start
    if not os.path.abspath(crossdial.__file__).startswith(src + os.sep):
        print(f"error: crossdial imported from {crossdial.__file__}, not {src}", file=sys.stderr)
        return 2

    os.makedirs(STATE_DIR, exist_ok=True)
    code_id = _code_id(src)
    workload = workloads.WORKLOADS[args.workload]
    import_times = [_import_seconds(src) for _ in range(SETUP_REPEATS)]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        prepared = workload.setup(args.seed, args.smoke, STATE_DIR)
        setup_times.append(time.perf_counter() - start)

    errors: list[str] = []
    try:
        samples = _run_units(np, workload, prepared, args.seconds)
        traced = spans = None
        if args.trace:
            with tracer.Recorder() as recorder:
                traced = _run_units(np, workload, prepared, args.seconds, count=len(samples))
            spans = recorder.spans
            recorder.dump(os.path.join(STATE_DIR, f"trace-{args.workload}-{args.seed}.jsonl"))
    finally:
        if workload.teardown is not None:
            workload.teardown(prepared)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    results = [r for _, _, r in samples + (traced or [])]
    # stages run in set-up (decode_bulk trains its model there) count once
    attempted = sum(r.attempted for r in results) + getattr(prepared, "setup_attempted", 0)
    failed = sum(r.failed for r in results) + getattr(prepared, "setup_failed", 0)
    errors.extend(getattr(prepared, "errors", []))
    for r in results:
        errors.extend(r.errors)
    digests = {r.digest for r in results}
    if len(digests) != 1 or "" in digests:
        errors.append(f"units disagree or failed: {len(digests)} distinct output digests")
    else:
        key = f"{code_id}/{args.workload}/{args.seed}/{'smoke' if args.smoke else 'full'}"
        mismatch = _Digests(os.path.join(STATE_DIR, "digests.json")).check(key, digests.pop())
        if mismatch:
            errors.append(mismatch)

    walls = [w for w, _, _ in samples]
    wall_s = _quartile(walls, 2)
    if args.trace:
        metrics = tracer.per_layer_metrics(spans, len(traced))
        metrics["trace.overhead_s"] = _quartile((w for w, _, _ in traced), 2) - wall_s
        counted = tracer.exact_counts(spans)
        for name in results[0].counts:
            expected = sum(r.counts[name] for _, _, r in traced)
            if counted[name] != expected:
                errors.append(f"coverage: traced {name} = {counted[name]}, untraced run = {expected}")
        metric_units = {name: unit for name, (unit, _) in tracer.PER_LAYER.items()}
    else:
        metrics = {
            "wall_s": wall_s,
            "setup_s": statistics.median(import_times) + statistics.median(setup_times),
            "tok_per_s": _quartile((r.tokens / (r.token_seconds or w) for w, _, r in samples), 0),
            "peak_rss_mb": peak_rss_mb,
        }
        metric_units = END_TO_END

    probes = [p * 1000.0 for _, p, _ in samples + (traced or [])]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": args.trace,
        "unit_wall_s": walls,
        "traced_unit_wall_s": [w for w, _, _ in traced or []],
        "import_s": import_s,
        "import_repeats_s": import_times,
        "setup_repeats_s": setup_times,
        "host_probe_ms": {"median": statistics.median(probes), "min": min(probes), "max": max(probes)},
        "ops_failed_frac": failed / attempted if attempted else 1.0,
        "process_s": time.perf_counter() - _STARTED,
        "env": _environment(np, root, code_id),
    }
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": metric_units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

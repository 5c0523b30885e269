"""irrseq benchmark: one workload, one seed, a closed loop for a fixed time.

    python3 perfbench/run.py --workload doubling --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --self-test

Runs from the root of a source checkout; it imports irrseq from ``src/``
and builds nothing.  One process, no threads (BLAS is held to one).
Set-up (a fresh interpreter importing irrseq, input generation from the
seed, a warm-up on a small instance) is repeated SETUP_REPEATS times and
its median reported.  The timed phase then runs passes back to back
while the next one is expected to end closer to ``--seconds`` than
stopping now would (at least one pass).  Every item is checked outside
the timed phase; a failed check or an exception counts it as failed.
End-to-end times are scaled to a nominal machine speed measured between
passes (see calibrate.py); the raw seconds are printed beside them.
With ``--trace 1`` a second, traced phase of the same length follows,
and the per-layer metrics (raw seconds) replace the end-to-end ones.

The last line of stdout is the JSON result; the lines before it give the
environment and the pass times.  Details, and the spans of a traced run,
are written under perfbench/out/.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "top_step_s": "s", "item_p50_s": "s",
                    "item_p75_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import irrseq; print(time.perf_counter() - t)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="irrseq benchmark")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that corrupted results are counted as failures")
    args = ap.parse_args(argv)

    if not (SRC / "irrseq" / "__init__.py").is_file():
        print(f"error: no irrseq sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    t_import = time.perf_counter()
    import workloads
    t_import = time.perf_counter() - t_import

    if args.self_test:
        import selftest
        return selftest.main()
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return run(workloads.WORKLOADS[args.workload], args, t_import)


def run(wl, args, t_import: float) -> int:
    import calibrate
    import irrseq
    import tracer as tracing

    calib = []
    setup_times, import_times = [], []
    for _ in range(SETUP_REPEATS):
        calib.append(calibrate.sample())
        t0 = time.perf_counter()
        import_times.append(_child_import_seconds())
        inputs = wl.generate(args.seed)
        wl.warm_up(inputs)
        setup_times.append(time.perf_counter() - t0)

    passes, items, errors = _timed_phase(wl, inputs, args.seconds, calib)
    speed = calibrate.speed_factor(calib)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # a pass that raised leaves no items; fall back to the pass times
    latencies = [it.seconds for it in items] or passes
    tops = wl.top_stages(items) or passes
    env = _environment(t_import)

    layer = None
    if args.trace:
        tr = tracing.Tracer()
        t_calib = []
        tr.install(irrseq)
        try:
            t_passes, t_items, t_errors = _timed_phase(wl, inputs, args.seconds, t_calib)
        finally:
            tr.uninstall()
        items += t_items
        errors += t_errors
        # both phases at nominal speed, so machine drift between them does
        # not pass for tracing overhead
        layer = tr.aggregate(statistics.median(t_passes) * calibrate.speed_factor(t_calib),
                             statistics.median(passes) * speed, len(t_passes), sum(t_passes))
        OUT.mkdir(exist_ok=True)
        tr.write(OUT / f"spans-{wl.name}-seed{args.seed}.npz")
        env["kernel_paths_ran"] = [k for k, v in layer.items() if ".path." in k and v]

    failed = errors + sum(1 for it in items if _failures(wl, it))
    attempted = len(items) + errors
    raw = {
        "wall_s": statistics.median(passes),
        "setup_s": statistics.median(setup_times),
        "top_step_s": statistics.median(tops),
        "item_p50_s": statistics.median(latencies),
        "item_p75_s": _p75(latencies),
    }
    e2e = {k: v * speed for k, v in raw.items()}
    e2e["peak_rss_mb"] = peak_rss_mb
    e2e["ok_frac"] = (attempted - failed) / attempted
    if layer is None:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    else:
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit, _ in tracing.per_layer_names()}

    detail = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "pass_s": passes,
              "item_s": latencies, "setup_s": setup_times,
              "child_import_s": import_times, "attempted": attempted, "failed": failed,
              "speed_factor": speed, "calibration_s": calib, "raw_s": raw,
              "end_to_end": e2e, "per_layer": layer}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps({"env": env}))
    print(json.dumps({"pass_s": [round(t, 4) for t in passes],
                      "item_samples": len(latencies), "speed_factor": round(speed, 4),
                      "raw_s": {k: round(v, 4) for k, v in raw.items()}}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _timed_phase(wl, inputs, seconds: float, calib=None):
    """Passes back to back; returns (pass times, items, passes that raised).
    With a ``calib`` list, a reference sample is added before every pass
    and after the last."""
    import calibrate
    passes, items, errors = [], [], 0
    while not passes or sum(passes) + 0.5 * statistics.fmean(passes) < seconds:
        if calib is not None:
            calib.append(calibrate.sample())
        t0 = time.perf_counter()
        try:
            got = wl.run_pass(inputs, len(items))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            got, errors = [], errors + 1
        passes.append(time.perf_counter() - t0)
        if wl.check_inline:
            for it in got:
                it.verdict = _check(wl, it)
                it.result = None
        items += got
    if calib is not None:
        calib.append(calibrate.sample())
    return passes, items, errors


def _check(wl, item) -> list[str]:
    try:
        return wl.check(item)
    except Exception as exc:
        return [f"check raised {exc!r}"]


def _failures(wl, item) -> list[str]:
    bad = item.verdict if item.verdict is not None else _check(wl, item)
    if bad:
        print(f"FAILED {wl.name}: {'; '.join(bad)}", file=sys.stderr)
    return bad


def _p75(xs: list[float]) -> float:
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=4, method="inclusive")[2]


def _child_import_seconds() -> float:
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, timeout=120, check=True,
                         cwd=ROOT)
    return float(out.stdout.strip())


def _environment(t_import: float) -> dict:
    import numpy
    import irrseq._arith as ar
    try:
        import gmpy2  # noqa: F401
        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        model = ""
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "gmpy2_importable": has_gmpy2,
            "bigint": f"{ar._big.__module__}.{ar._big.__name__}",
            "nproc": os.cpu_count(), "cpu_model": model,
            "platform": platform.platform(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "import_s": t_import}


if __name__ == "__main__":
    sys.exit(main())

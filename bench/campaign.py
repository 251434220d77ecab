"""Child process of the benchmark: one workload, one process.

Reads a JSON spec on stdin and writes one JSON result on stdout.

mode "setup": time from the start of ``import szegolab`` until the
workload's manifold is built by ``cli.resolve_manifold``.

mode "campaign": run ``cli.main(argv)`` in this process, repeatedly, with
stdout and stderr captured, until the time budget is spent.  The first
repeat warms the process up: it is checked like the others but not timed,
which keeps its extra cost (page faults of a fresh heap) out of every
median.  Without tracing, the machine-speed reference of ``reference.py``
is timed after every repeat, in a process of its own, so that each timed
repeat has a reference timing on either side.  With ``"trace": true``
traced and untraced repeats alternate instead; the traced ones run under
the span wrappers of ``spans.py``.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# the warm-up and two timed repeats: enough to compare stdout between
# repeats, and in a traced run to time one traced and one untraced repeat
MIN_REPEATS = 3
# stop starting repeats past this point, whatever MIN_REPEATS asks, so the
# whole run ends well inside its 180 s limit
HARD_STOP_S = 110.0


def _import_package(src: str):
    sys.path.insert(0, src)
    import szegolab
    from szegolab import cli

    where = Path(szegolab.__file__).resolve()
    if Path(src).resolve() not in where.parents:
        raise ImportError(f"szegolab imported from {where}, not from {src}")
    return cli


def setup_probe(spec: dict) -> dict:
    t0 = time.perf_counter()
    cli = _import_package(spec["src"])
    args = cli.build_parser().parse_args(spec["argv"])
    cli.resolve_manifold(args)
    return {"setup_s": time.perf_counter() - t0}


def run_once(cli, argv: list[str]) -> tuple[dict, str]:
    """One campaign; its outcome and the stdout text it printed."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as e:  # argparse rejects bad argv this way
        rc = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # a crash is one failed attempt, not the end of the run
        rc = -1
        err.write(f"{type(e).__name__}: {e}")
    seconds = time.perf_counter() - start
    text = out.getvalue()
    outcome = {
        "rc": rc,
        "seconds": seconds,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "stderr": err.getvalue()[-2000:],
    }
    return outcome, text


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    import ctypes

    import numpy

    # numpy wheels bundle their OpenBLAS in numpy.libs, next to the package
    for lib in sorted(Path(numpy.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def campaign(spec: dict) -> dict:
    cli = _import_package(spec["src"])
    import numpy

    if spec["trace"]:
        result = repeat(cli, spec, None)
    else:
        from reference import Reference

        reference = Reference()
        try:
            result = repeat(cli, spec, reference)
        finally:
            reference.close()
    result["info"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
    }
    return result


def repeat(cli, spec: dict, reference) -> dict:
    """Repeat the campaign until the time budget is spent, timing the
    reference (if any) after each repeat."""
    argv, budget, trace = spec["argv"], float(spec["seconds"]), bool(spec["trace"])
    if trace:
        from spans import Tracer

    runs: list[dict] = []
    layers: list[dict] = []
    first_text = None
    peak_rss_kib = None
    tracer = None
    t_start = time.perf_counter()
    while True:
        traced = trace and len(runs) % 2 == 1
        gc.collect()  # garbage of the previous repeat is not this one's cost
        if traced:
            tracer = Tracer()
            with tracer.installed():
                outcome, text = run_once(cli, argv)
            layers.append(tracer.metrics())
        else:
            outcome, text = run_once(cli, argv)
        outcome["traced"] = traced
        outcome["warmup"] = not runs
        outcome["reference_after"] = reference.time() if reference else None
        runs.append(outcome)
        if first_text is None:
            first_text = text
            # high-water mark of import plus one campaign; later repeats only
            # add allocator fragmentation
            peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(r["seconds"] + (r["reference_after"] or 0.0) for r in runs)
        if elapsed + typical > HARD_STOP_S:
            break
        if len(runs) >= MIN_REPEATS and elapsed + typical > budget:
            break
    if tracer is not None and spec.get("spans_path"):
        tracer.dump(Path(spec["spans_path"]), t_start)
    return {"runs": runs, "report": first_text, "peak_rss_kib": peak_rss_kib, "layers": layers}


def main() -> int:
    spec = json.load(sys.stdin)
    result = setup_probe(spec) if spec["mode"] == "setup" else campaign(spec)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

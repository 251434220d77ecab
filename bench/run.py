"""Benchmark of the szegolab CLI campaigns, end to end and layer by layer.

    python3 bench/run.py --workload fit-wsphere12 --seed 0 --seconds 50 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/``.  With ``--trace 0`` it reports the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` the per-layer ones, from a run in
which every public function of each layer is wrapped in a span.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.

Load is closed-loop with one client: one campaign at a time, each in a
child process of its own so that its peak memory belongs to it.
``campaign_s`` and ``setup_s`` are scaled by the machine-speed reference of
reference.py, timed between the repeats.  See README.md in this directory
for why each workload was chosen and why the reference is there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from reference import REFERENCE_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CAMPAIGN = BENCH / "campaign.py"
SETUP_PROBES = 11
CHILD_TIMEOUT_S = 170


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def dimension(weights: tuple[int, ...], m: int) -> int:
    """Number of exponent vectors a >= 0 with <a, w> = m (counted independently
    of the package, to check the embedding dimension it reports)."""
    ways = [1] + [0] * m
    for w in weights:
        for s in range(w, m + 1):
            ways[s] += ways[s - w]
    return ways[m]


# the embed workload has weights (1, 2, 6), largest stabilizer order 6, and
# base level m = 4, so its blocks have levels k*4 and k*5 for k = 1..6
EMBED_WEIGHTS = (1, 2, 6)
EMBED_LEVELS = sorted({k * m for k in range(1, 7) for m in (4, 5)})


def check_fit(report: dict) -> list[str]:
    r = report["results"]
    errors = []
    if report["command"] != "fit":
        errors.append(f"command {report['command']!r}")
    if r["stratum_order"] != 2:
        errors.append(f"stratum order {r['stratum_order']} at (0, 1), expected 2")
    if r["levels"] != list(range(20, 61, 2)):
        errors.append(f"levels {r['levels']}, expected the even levels 20..60")
    if r["measure"] != "compliant-quadrature":
        errors.append(f"measure {r['measure']!r}")
    if not 0.0 < r["relative_error"] <= 0.1:
        errors.append(f"relative error {r['relative_error']} outside (0, 0.1]")
    return errors


def check_embed(report: dict) -> list[str]:
    r = report["results"]
    errors = []
    if report["command"] != "embed":
        errors.append(f"command {report['command']!r}")
    if r["levels"] != EMBED_LEVELS:
        errors.append(f"levels {r['levels']}, expected {EMBED_LEVELS}")
    expected_n = sum(dimension(EMBED_WEIGHTS, m) for m in EMBED_LEVELS)
    if r["N"] != expected_n:
        errors.append(f"N = {r['N']}, expected {expected_n}")
    if r["min_weight"] != 4:
        errors.append(f"min weight {r['min_weight']}, expected 4")
    if r["violations"]:
        errors.append(f"{len(r['violations'])} separation violations")
    if not r["immersion_floor"] > 1e-6:
        errors.append(f"immersion floor {r['immersion_floor']}")
    return errors


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]  # the campaign, without --seed
    check: Callable[[dict], list[str]]


WORKLOADS = {
    "fit-wsphere12": Workload(
        ("fit", "--weights", "1,2", "--point", "0,1", "--m", "20..60", "--samples", "100000",
         "--tolerance", "fit=0.1"),
        check_fit,
    ),
    "embed-example2": Workload(
        ("embed", "--preset", "example2", "--m", "4", "--m0", "3", "--pairs", "60",
         "--samples", "12500", "--immersion-samples", "30"),
        check_embed,
    ),
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    """Environment with BLAS threads capped at the cores this process may use."""
    env = dict(os.environ)
    cap = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = env.get(var, "")
        asked = int(current) if current.isdigit() and int(current) > 0 else cap
        env[var] = str(min(asked, cap))
    return env


def spawn(spec: dict, env: dict[str, str]) -> dict:
    """Run campaign.py on spec in a fresh process and return its JSON result."""
    spec = {"src": str(SRC), **spec}
    try:
        proc = subprocess.run(
            [sys.executable, str(CAMPAIGN)], input=json.dumps(spec), capture_output=True,
            text=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as e:
        raise HarnessError(f"{spec['mode']} child exceeded {CHILD_TIMEOUT_S} s") from e
    if proc.returncode != 0:
        raise HarnessError(f"{spec['mode']} child exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def judge(workload: Workload, child: dict) -> tuple[list[int], list[str], dict]:
    """Indices of failed repeats, why they failed, and the parsed report.

    A repeat fails on a nonzero exit, on stdout that differs from the first
    repeat's (traced repeats included: the wrappers must not change results),
    or, when it printed the first repeat's report, on a failed contract or
    check of that report.
    """
    runs = child["runs"]
    first = runs[0]["sha256"]
    reasons: list[str] = []
    failed: set[int] = set()
    for i, r in enumerate(runs):
        if r["rc"] != 0:
            failed.add(i)
            reasons.append(f"repeat {i}: exit {r['rc']}: {r['stderr'].strip()[-300:]}")
        elif r["sha256"] != first:
            failed.add(i)
            kind = "traced" if r["traced"] else "untraced"
            reasons.append(f"repeat {i} ({kind}): stdout differs from repeat 0")
    report: dict = {}
    try:
        report = json.loads(child["report"])
        errors = [] if report["passed"] is True else ["report has passed != true"]
        errors += workload.check(report)
    except (ValueError, KeyError, TypeError) as e:
        errors = [f"report unreadable: {type(e).__name__}: {e}"]
    if errors:
        reasons += errors
        failed |= {i for i, r in enumerate(runs) if r["sha256"] == first}
    return sorted(failed), reasons, report


def reference_scaled(runs: list[dict]) -> list[float]:
    """Each timed repeat's wall seconds times REFERENCE_S over the mean of
    the reference timings just before and just after it."""
    return [
        r["seconds"] * REFERENCE_S / ((before["reference_after"] + r["reference_after"]) / 2)
        for before, r in zip(runs, runs[1:])
    ]


def src_lines() -> int:
    return sum(p.read_text(encoding="utf-8").count("\n") for p in sorted(SRC.rglob("*.py")))


def load_metric_specs() -> tuple[list[dict], list[dict]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["end_to_end"], spec["per_layer"]


def run_benchmark(name: str, seed: int, seconds: int, trace: bool, overrides=()) -> tuple[dict, list[str]]:
    """Measure one workload; returns the result object and the report lines
    printed before it.  `overrides` are extra CLI arguments appended to the
    campaign (argparse keeps the last value), used to shrink it in tests."""
    if not (SRC / "szegolab" / "__init__.py").is_file():
        raise HarnessError(f"no package source at {SRC / 'szegolab'}; run from a szegolab checkout")
    end_to_end, per_layer = load_metric_specs()
    workload = WORKLOADS[name]
    argv = [*workload.argv, "--seed", str(seed), *overrides]
    env = child_env()
    lines = [f"workload {name}  seed {seed}  trace {int(trace)}  argv: szegolab {' '.join(argv)}"]

    setup = []
    if not trace:
        setup = [spawn({"mode": "setup", "argv": argv}, env)["setup_s"] for _ in range(SETUP_PROBES)]
    spans_path = ROOT / ".bench_out" / f"spans-{name}-seed{seed}.json" if trace else None
    child = spawn(
        {"mode": "campaign", "argv": argv, "seconds": seconds, "trace": trace,
         "spans_path": str(spans_path) if spans_path else None},
        env,
    )
    runs = child["runs"]
    failed, reasons, report = judge(workload, child)
    lines += [f"  FAILED {reason}" for reason in reasons]

    untraced = [r["seconds"] for r in runs if not r["traced"] and not r["warmup"]]
    values: dict[str, float] = {}
    if trace:
        traced = [r["seconds"] for r in runs if r["traced"]]
        layer_runs = child["layers"]
        for key in layer_runs[0] if layer_runs else ():
            values[key] = statistics.median(m[key] for m in layer_runs)
        values["trace.campaign_s_untraced"] = statistics.median(untraced)
        values["trace.campaign_s_traced"] = statistics.median(traced) if traced else 0.0
        values["trace.overhead"] = values["trace.campaign_s_traced"] / values["trace.campaign_s_untraced"]
        values["fit_rel_error"] = report.get("results", {}).get("relative_error", 0.0)
        lines += layer_table(values)
        lines.append(
            f"  tracing overhead x{values['trace.overhead']:.3f}: traced campaign_s "
            f"{values['trace.campaign_s_traced']:.4f} s (median of {len(traced)}) vs untraced "
            f"{values['trace.campaign_s_untraced']:.4f} s (median of {len(untraced)})"
        )
        specs = per_layer
    else:
        scaled = reference_scaled(runs)
        reference = statistics.median(r["reference_after"] for r in runs)
        values["campaign_s"] = statistics.median(scaled)
        values["setup_s"] = statistics.median(setup) * REFERENCE_S / reference
        values["peak_rss_mb"] = child["peak_rss_kib"] / 1024.0
        lines += [
            f"  campaign_s  {values['campaign_s']:.4f} s  median of {len(scaled)} repeats after a "
            f"warm-up, each scaled to a reference of {REFERENCE_S} s; in order: "
            f"{', '.join(f'{s:.3f}' for s in scaled)}",
            f"  wall time   {statistics.median(untraced):.4f} s  median of the same repeats unscaled; "
            f"in order: {', '.join(f'{s:.3f}' for s in untraced)}",
            f"  reference   {reference:.4f} s  median of {len(runs)} timings, one after each repeat",
            f"  setup_s     {values['setup_s']:.4f} s  median of {len(setup)} fresh processes, scaled "
            f"by the median reference; unscaled {statistics.median(setup):.4f} s "
            f"(min {min(setup):.4f}, max {max(setup):.4f})",
            f"  peak_rss_mb {values['peak_rss_mb']:.1f} MiB  one process: import and the first campaign",
        ]
        specs = end_to_end

    info = {"nproc": nproc(), "blas_threads": child["info"]["blas_threads"],
            "blas_env": env["OPENBLAS_NUM_THREADS"], "python": child["info"]["python"],
            "numpy": child["info"]["numpy"], "src_lines": src_lines(), "repeats": len(runs)}
    lines.append("  info " + json.dumps(info, sort_keys=True))
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise HarnessError(f"metrics not measured: {missing}")
    result = {
        "correct": not reasons,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs},
    }
    return result, lines


def layer_table(values: dict[str, float]) -> list[str]:
    """Self time of each layer and its share of the traced campaign."""
    total = values["trace.campaign_s_traced"] or 1.0
    rows = sorted(((k[: -len(".self_s")], v) for k, v in values.items() if k.endswith(".self_s")),
                  key=lambda kv: -kv[1])
    out = ["  layer                      self_s   share  calls"]
    for layer, seconds in rows:
        out.append(f"  {layer:<24} {seconds:8.4f}  {seconds / total:6.1%}  {values[layer + '.calls']:.0f}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    try:
        result, lines = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except (HarnessError, OSError, ValueError, KeyError) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

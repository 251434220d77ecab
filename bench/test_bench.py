"""Smoke tests of the benchmark itself, on tiny campaigns.

    python3 -m pytest -q bench/test_bench.py

They check that every metric in BENCHMARK.json is printed with its unit,
that the correctness gate fires on a failing contract, that campaign_s is
scaled by the machine-speed reference as documented, that the span
wrappers reach every call site, and that the benchmark refuses to run
without the package source.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import reference  # noqa: E402
import run as bench_run  # noqa: E402
import spans  # noqa: E402

# each workload shrunk to about a second; argparse keeps the last value given
TINY = {
    "fit-wsphere12": ["--samples", "4000"],
    "embed-example2": ["--samples", "4000", "--pairs", "30", "--immersion-samples", "12"],
}

# the metric names that later changes refer to; BENCHMARK.json lists exactly these
END_TO_END = {"campaign_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = [
    "geometry.rho_value.calls", "geometry.rho_value.rows", "geometry.rho_value.self_s",
    "geometry.rho_value.rows_per_call", "geometry.rho_grad.calls", "geometry.rho_grad.self_s",
    "geometry.point.calls", "geometry.strata.calls", "geometry.strata.self_s",
    "geometry.orbit_distance.pairs", "geometry.orbit_distance.self_s",
    "integrate.radial_roots.calls", "integrate.radial_roots.rays", "integrate.radial_roots.self_s",
    "integrate.rho_rows_per_ray", "integrate.sample.points", "integrate.sample.self_s",
    "integrate.point_gen.self_s",
    "basis.gram.calls", "basis.gram.sample_rows", "basis.gram.self_s", "basis.gram.rel_stderr_max",
    "basis.monomial.rows", "basis.monomial.self_s", "basis.whiten.self_s",
    "basis.eval.calls", "basis.eval.rows", "basis.eval.self_s",
    "kernel.eval.calls", "kernel.eval.self_s", "kernel.fit.self_s",
    "embedding.build.self_s", "embedding.immersion.points", "embedding.immersion.self_s",
    "embedding.separation.pairs", "embedding.separation.self_s",
    "cli.report.self_s", "fit_rel_error",
    "trace.campaign_s_untraced", "trace.campaign_s_traced", "trace.overhead",
]


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_every_metric():
    spec = benchmark_spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(bench_run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_workload_prints_every_metric(workload, trace):
    result, lines = bench_run.run_benchmark(workload, 3, 1, trace, TINY[workload])
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 2
    specs = benchmark_spec()["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        s["name"]: s["unit"] for s in specs
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), name
        if not trace:
            assert m["value"] > 0, name
    if trace:
        calls = result["metrics"]["integrate.radial_roots.calls"]["value"]
        assert (calls > 0) == (workload == "embed-example2")


def test_gate_fires_on_failing_contract():
    overrides = TINY["fit-wsphere12"] + ["--tolerance", "fit=1e-12"]
    result, lines = bench_run.run_benchmark("fit-wsphere12", 3, 1, False, overrides)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2
    assert any("exit 1" in line and "leading-coefficient" in line for line in lines)


def test_gate_fires_on_differing_repeats():
    workload = bench_run.WORKLOADS["fit-wsphere12"]
    report = json.dumps({"passed": True, "command": "fit", "results": {
        "stratum_order": 2, "levels": list(range(20, 61, 2)),
        "measure": "compliant-quadrature", "relative_error": 0.01}})
    runs = [{"rc": 0, "sha256": "a", "traced": False, "stderr": ""},
            {"rc": 0, "sha256": "b", "traced": True, "stderr": ""}]
    failed, reasons, _ = bench_run.judge(workload, {"runs": runs, "report": report})
    assert failed == [1]
    assert "differs" in reasons[0]


def test_campaign_s_is_scaled_by_the_reference_around_each_repeat():
    runs = [{"seconds": 9.0, "reference_after": 0.5},  # the warm-up: not timed
            {"seconds": 2.0, "reference_after": 0.7},
            {"seconds": 3.0, "reference_after": 0.5}]
    scale = reference.REFERENCE_S / 0.6
    assert bench_run.reference_scaled(runs) == pytest.approx([2.0 * scale, 3.0 * scale])


def test_reference_process_times_and_stops():
    ref = reference.Reference()
    try:
        assert 0.0 < ref.time() < 60.0
    finally:
        ref.close()
    assert ref._proc.returncode == 0


def test_span_counts_equal_direct_call_counts():
    """Every wrapped function is reached through its wrapper, from every call site.

    The profiler counts entries into each original function's code, whoever
    calls it; the tracer counts only calls that went through a wrapper.
    """
    from szegolab import cli

    layer_of = {}
    for layer, module, path, _ in spans.TARGETS:
        _, _, fn = spans.resolve(module, path)
        layer_of[fn.__code__] = layer
    direct: Counter[str] = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in layer_of:
            direct[layer_of[frame.f_code]] += 1

    tracer = spans.Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            for workload in ("embed-example2", "fit-wsphere12"):
                argv = [*bench_run.WORKLOADS[workload].argv, *TINY[workload]]
                assert cli.main(argv) == 0
        finally:
            sys.setprofile(None)
    traced = {layer: tracer.counts[f"{layer}.calls"] for layer in spans.LAYERS}
    assert traced == {layer: direct[layer] for layer in spans.LAYERS}
    assert all(traced.values()), traced


def test_wrappers_are_removed_after_tracing():
    from szegolab import basis, embedding, geometry, integrate, kernel

    before = (integrate.surface_samples, basis.surface_samples, kernel.surface_samples,
              embedding.stratified_points, geometry.DefiningPolynomial.value)
    with spans.Tracer().installed():
        assert basis.surface_samples is not before[1]
        assert embedding.stratified_points is not before[3]
    after = (integrate.surface_samples, basis.surface_samples, kernel.surface_samples,
             embedding.stratified_points, geometry.DefiningPolynomial.value)
    assert all(a is b for a, b in zip(before, after))


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fit-wsphere12", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "no package source" in proc.stderr

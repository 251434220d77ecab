"""The benchmark's span targets name functions that exist.

bench/spans.py finds each function it wraps by module and attribute path,
so renaming or deleting one of them breaks the traced benchmark; these
checks make that a test failure here, next to the code that changed.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(spans):
    for layer, module, path, _ in spans.TARGETS:
        owner, attr, fn = spans.resolve(module, path)
        assert callable(fn), (layer, module, path)
        assert getattr(owner, attr) is fn, (layer, module, path)


def test_imported_names_the_tracer_rebinds_are_module_attributes():
    # the tracer rebinds these names in the modules that import them
    from szegolab import basis, embedding, integrate, kernel

    assert basis.surface_samples is integrate.surface_samples
    assert kernel.surface_samples is integrate.surface_samples
    assert embedding.stratified_points is integrate.stratified_points

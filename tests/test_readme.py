"""The README's library example runs as written, and the claims in its
comments hold, so renaming a public name breaks a test, not the docs."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_and_its_comments_hold():
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    fit, Phi = namespace["fit"], namespace["Phi"]
    assert fit.stratum_order == 2  # k = 2
    assert fit.c_lead == pytest.approx(fit.predicted, rel=0.002)
    assert Phi.levels == (4, 5, 8, 10)
    assert Phi.total_dim == 17

"""Pinned reports: the exit code and the sha256 of stdout of each argv below,
run in process through cli.main, or for THREAD_REPORTS in a fresh process at
a set BLAS thread count, so a change that moves one reported bit fails here.

The digests were recorded under numpy NUMPY_VERSION.  Another numpy may draw
other bits from the same Philox stream or round a kernel differently, so
there the test skips and names both versions.  A change that moves a report
on purpose updates its digest here and names the argv in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_readme import readme_commands

from szegolab.cli import main

NUMPY_VERSION = "2.4.6"
EMBED = "embed --preset example2 --m 4 --m0 3 --pairs 60 --samples 12500 --immersion-samples 30"
EXAMPLE2_POINT = "--preset example2 --point 0,0,0.8260313576541872"

# argv -> (exit code, sha256 of stdout)
REPORTS = {
    f"{EMBED} --seed 0": (0, "d038552857d3531ce95af79768836c0ca7db148cb9f08b0cd2270455db4950c7"),
    f"{EMBED} --seed 1": (0, "f571c1e7f71eb3970f33958de90d760f96d4682113705ad924233cc524eb802a"),
    "fit --weights 1,2 --point 0,1 --m 20..60 --samples 100000 --tolerance fit=0.1 --seed 0":
        (0, "c0aa4e412144573c2ff8dc185ee893202b4d475ce97365883dde3d911fc8bd89"),
    f"kernel {EXAMPLE2_POINT} --m 4..8 --samples 20000 --seed 2":
        (0, "c6abdf571ab14ae52fa4f7af8b818f42b95609dde85ec05913cada1f7133eeb4"),
    "vanish --weights 1,2,6 --point 0,0,1 --m 4..9":
        (0, "6f4361c707cf51a67862b09c81554d7c027ffaf3b6ab374d5d35c396052acfb0"),
    # fit's random point reads a stream of its own, apart from its Gram sample
    "fit --preset example2 --m 4..12 --samples 20000 --seed 0":
        (1, "01a2886a90ecc23ec105a8b1b127200288a99c4a6b50a46589940d0fa3dc2d04"),
    # one ball per radius, shared by every candidate m
    "ratio --weights 1,2 --point 0,1 --m 30 --seed 0":
        (0, "c9f9a133e8f6e5a01fc95bdd91ed68c28d3e24359efc4b6139af944b787d1a94"),
    # the orbit-distance bounds over many pairs and the orbit search on the
    # 21 they leave open, on round-exact Grams
    "embed --preset example2 --m 4 --m0 3 --pairs 2000 --seed 0":
        (0, "0326e6ab108670f500cdc32948286985454595cc081b39e921b9e9ebeb640554"),
    # a weighted sphere's embedding, on round-exact Grams
    "embed --weights 1,2,6 --m 4 --m0 3 --pairs 600 --seed 0":
        (0, "83c4b392d3ba5c2aa5c508d1c6ecd276cefade7a4b7d610119cf62919959a8a1"),
}

# reports whose BLAS products OpenBLAS rounds differently when it splits them
# over threads: BLAS thread count -> argv -> (exit code, sha256 of stdout)
MC_FIT = f"fit {EXAMPLE2_POINT} --m 4..30 --samples 20000 --seed 0"  # Monte-Carlo Grams
# simplex-rule Grams on real power tables up to exponent 120
SIMPLEX_FIT = "fit --weights 1,2,6 --point 0,0,1 --m 60..120 --tolerance fit=0.5"
THREAD_REPORTS = {
    1: {MC_FIT: (1, "fc95c9ea90c31762627f75c758a61578fcd60d117b16d20a49cbc59456dde6c0"),
        SIMPLEX_FIT: (0, "fdab77cd6acf268b116c4f800389a9b57402a2e8aa642c94e877536c0c4613ea")},
    2: {MC_FIT: (1, "43580b8d90913d3cf5134976b944a194e8a55b57e1cced1d17b9211b684330fb"),
        SIMPLEX_FIT: (0, "4e371293be3f264ffa7d296d1beec15b36cc70665e39ec532124e317c6a23530")},
}


# README's command block, and the files --out writes.  Each runs in a fresh
# directory with relative paths: --function's path enters the config hash,
# --out's does not.
# argv -> (exit code, sha256 of stdout, {file --out writes: its sha256})
README_REPORTS = {
    "dims --preset sphere --n 2 --m 0..10":
        (0, "f383e3752ec453cf22e92ea31696b03ac4f83e4e2b4628cc5ddc48e4cc94c326", {}),
    "norms --preset sphere --n 2 --m 3":
        (0, "d262ee5be3eca653b52a5ea0753119d65e856361b88c25b99fd3d864d0a83527", {}),
    "kernel --preset sphere --n 2 --m 3..5 --point 1,0 --point2 0,1":
        (0, "f6f43f6f97de4556904ceaceec92e395db236da66fca8ee5328b111231f388a3", {}),
    "fit --preset sphere --n 2 --m 20..60 --point 1,0":
        (0, "c73ea45b64b27f4d22661167ba252e7981f378f5c47a1ccd5a071ce99235d439", {}),
    "fit --weights 1,2 --point 0,1 --m 20..60 --tolerance fit=0.1":
        (0, "6e9f0e0b5c3a1099b39854f891bf0e2597a2187b2f239288b608731f8f5425a5", {}),
    "vanish --weights 1,2 --point 0,1 --m 1..59":
        (0, "09b8ee0df6b109d6ed8b74cc6725aa7f7f893107d28f632e0d138d722a1c7f8c", {}),
    "ratio --weights 1,2 --point 0,1 --m 30..60 --radii 0.3,0.1,0.03":
        (0, "0da8103c43e0204efdf4b8593a0c9f6e3ef5a4d68443ecb314c03d9d2a07ed21", {}),
    "project --weights 1,2 --point 0.6,0.8 --m 0..4 --function func.json":
        (0, "54d86afb620649c7d55345401060eb9daffff9edc82ca5cdd81b5f3839e0d19e", {}),
    "embed --weights 1,2,6 --m 4 --m0 3 --pairs 10000 --out reports/": (
        0, "88915eee3d3a62d786e476aa908a7fc67ad50e038059a0474cd37bcd24e87641",
        {"embed.json": "88915eee3d3a62d786e476aa908a7fc67ad50e038059a0474cd37bcd24e87641",
         "embed.csv": "a36b0e061f3784bc8e384b5619fde7788d8111a3be5574bb98d24814d7b3b461"},
    ),
    # a CSV-primary report written by --out
    "dims --preset example2 --m 0..12 --out reports": (
        0, "52f97b96247100c2868b72714ef3da49a6bdc45d85b601b495e187fcdc969397",
        {"dims.json": "5411bdd4fae62049d90bc041e16e3c917cb6cbd1c4423382440879eba05e89f4",
         "dims.csv": "52f97b96247100c2868b72714ef3da49a6bdc45d85b601b495e187fcdc969397"},
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _skip_under_other_numpy():
    if np.__version__ != NUMPY_VERSION:
        pytest.skip(f"report digests were recorded under numpy {NUMPY_VERSION}; this is numpy {np.__version__}")


@pytest.mark.parametrize("argv", list(REPORTS))
def test_report_is_byte_identical(capsys, argv):
    _skip_under_other_numpy()
    code = main(argv.split())
    assert (code, _sha256(capsys.readouterr().out.encode())) == REPORTS[argv]


def test_every_readme_command_is_pinned():
    assert {" ".join(words[1:]) for words in readme_commands()} <= set(README_REPORTS)


@pytest.mark.parametrize("argv", list(README_REPORTS))
def test_readme_report_and_out_files_are_byte_identical(capsys, monkeypatch, tmp_path, argv):
    _skip_under_other_numpy()
    monkeypatch.chdir(tmp_path)
    # the project line's --function file: the polynomial z1 zbar2, as test_readme writes it
    Path("func.json").write_text(json.dumps(
        [{"coeff": "1", "z_exponents": [1, 0], "zbar_exponents": [0, 1]}]
    ))
    code = main(argv.split())
    stdout = _sha256(capsys.readouterr().out.encode())
    *_, files = README_REPORTS[argv]
    written = {name: _sha256(Path("reports", name).read_bytes()) for name in files}
    assert (code, stdout, written) == README_REPORTS[argv]


def _fresh_process(argv: str, threads: int) -> tuple[int, str]:
    """(exit code, sha256 of stdout) of the module's sys.exit(main()) run in
    a new process at the given BLAS thread count."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": str(threads)}
    run = subprocess.run([sys.executable, "-m", "szegolab.cli", *argv.split()],
                         env=env, capture_output=True, check=False)
    return run.returncode, _sha256(run.stdout)


def test_a_fresh_process_on_one_blas_thread_prints_the_pinned_report():
    # shows the reports do not depend on the BLAS thread count; the
    # 2,000-pair embed also meets the orbit-distance bounds, the orbit search
    # and the CLI's allocator setting as a one-shot run meets them
    _skip_under_other_numpy()
    for argv in (f"{EMBED} --seed 0", "embed --preset example2 --m 4 --m0 3 --pairs 2000 --seed 0"):
        assert _fresh_process(argv, 1) == REPORTS[argv], argv


@pytest.mark.parametrize("threads, argv", [(t, argv) for t, reports in THREAD_REPORTS.items() for argv in reports])
def test_report_at_a_set_blas_thread_count_is_byte_identical(threads, argv):
    _skip_under_other_numpy()
    # OpenBLAS runs at most one thread per CPU the process may use
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if cpus < threads:
        pytest.skip(f"the digest needs {threads} BLAS threads; this process may use {cpus} CPUs")
    assert _fresh_process(argv, threads) == THREAD_REPORTS[threads][argv]

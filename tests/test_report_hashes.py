"""Pinned reports: the exit code and the sha256 of stdout of each argv below,
run in process through cli.main, so a change that moves one reported bit
fails here.

The digests were recorded under numpy NUMPY_VERSION.  Another numpy may draw
other bits from the same Philox stream or round a kernel differently, so
there the test skips and names both versions.  A change that moves a report
on purpose updates its digest here and names the argv in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

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
    f"fit {EXAMPLE2_POINT} --m 4..30 --samples 20000 --seed 0":
        (1, "43580b8d90913d3cf5134976b944a194e8a55b57e1cced1d17b9211b684330fb"),
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
    # Monte-Carlo Grams and the orbit search over many pairs
    "embed --preset example2 --m 4 --m0 3 --pairs 2000 --seed 0":
        (0, "0326e6ab108670f500cdc32948286985454595cc081b39e921b9e9ebeb640554"),
    # a weighted sphere's embedding, on round-exact Grams
    "embed --weights 1,2,6 --m 4 --m0 3 --pairs 600 --seed 0":
        (0, "83c4b392d3ba5c2aa5c508d1c6ecd276cefade7a4b7d610119cf62919959a8a1"),
    # simplex-rule Grams on real power tables up to exponent 120
    "fit --weights 1,2,6 --point 0,0,1 --m 60..120 --tolerance fit=0.5":
        (0, "4e371293be3f264ffa7d296d1beec15b36cc70665e39ec532124e317c6a23530"),
}


@pytest.mark.parametrize("argv", list(REPORTS))
def test_report_is_byte_identical(capsys, argv):
    if np.__version__ != NUMPY_VERSION:
        pytest.skip(f"report digests were recorded under numpy {NUMPY_VERSION}; this is numpy {np.__version__}")
    code = main(argv.split())
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == REPORTS[argv]

"""The Gauss-Legendre rule, built once per process for each node count and
shared read-only."""

import pytest

import szegolab.integrate as integrate
from szegolab.cli import main

RULE = integrate._gauss_legendre


def test_cached_rule_is_read_only():
    for a in RULE(5):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


def test_cached_rule_is_shared():
    assert all(a is b for a, b in zip(RULE(5), RULE(5)))


def test_cached_rule_equals_a_fresh_rule():
    for q in range(1, 201):
        for cached, fresh in zip(RULE(q), RULE.__wrapped__(q)):
            assert cached.dtype == fresh.dtype and cached.shape == fresh.shape
            assert cached.tobytes() == fresh.tobytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--weights", "1,2", "--point", "0,1", "--m", "20..40", "--samples", "20000"],
        ["embed", "--preset", "example2", "--m", "4", "--m0", "3", "--pairs", "60",
         "--samples", "4000", "--immersion-samples", "20"],
    ],
    ids=["fit", "embed"],
)
def test_campaign_prints_the_same_bytes_cold_and_warm(capsys, argv):
    RULE.cache_clear()
    outputs, misses = [], []
    for _ in range(2):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
        misses.append(RULE.cache_info().misses)
    assert outputs[0] == outputs[1]
    # the warm run builds no rule that the cold run built
    assert misses[1] == misses[0]


def test_fit_builds_one_rule_and_a_repeat_reuses_it():
    RULE.cache_clear()
    argv = ["fit", "--weights", "1,2", "--point", "0,1", "--m", "20..40", "--samples", "20000"]
    for _ in range(2):
        assert main(argv) == 0
    info = RULE.cache_info()
    assert (info.misses, info.hits) == (1, 1)

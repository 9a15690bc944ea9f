"""The counter-based generator and the transforms the engine draws with."""

import re
from pathlib import Path

import numpy as np
import pytest

import upliftemm
from upliftemm import RngStreamSpec
from upliftemm.philox import (
    ROLE_IDS,
    _unit,
    box_muller,
    philox4x32,
    poisson_cdf,
    poisson_counts,
    uniforms,
)

N_DRAWS = 100_000


def _hex(words):
    return [f"{int(w):08x}" for w in words]


@pytest.mark.parametrize(
    "counter, key, expected",
    [
        # Random123 known-answer vectors for philox4x32-10
        ((0, 0, 0, 0), (0, 0), "6627e8d5 e169c58d bc57ac4c 9b00dbd8"),
        ((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2, "408f276d 41c83b0e a20bc7c6 6d5451fd"),
        (
            (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
            (0xA4093822, 0x299F31D0),
            "d16cfe09 94fdcceb 5001e420 24126ea1",
        ),
    ],
)
def test_known_answers(counter, key, expected):
    assert _hex(philox4x32(counter, key)) == expected.split()
    # the same counter anywhere in an array gives the same words
    words = philox4x32([np.array([c, 7, c]) for c in counter], key)
    assert _hex(w[2] for w in words) == expected.split()


@pytest.mark.parametrize("mean", [0.5, 6.0, 1000.0])
def test_poisson_inversion_moments(mean):
    u = uniforms(1, "count", np.arange(N_DRAWS), 3)[0]
    counts = poisson_counts(poisson_cdf(mean), u)
    z_mean = (counts.mean() - mean) / np.sqrt(mean / N_DRAWS)
    # the sample variance of a Poisson count has variance (mean + 2 mean^2) / n
    z_var = (counts.var(ddof=1) - mean) / np.sqrt((mean + 2 * mean**2) / N_DRAWS)
    assert abs(z_mean) < 4.0 and abs(z_var) < 4.0, (z_mean, z_var)


def test_box_muller_moments():
    z = box_muller(uniforms(2, "brownian", np.arange(N_DRAWS // 2), 5)).ravel()
    n = z.size
    m2 = np.mean((z - z.mean()) ** 2)
    kurt = np.mean((z - z.mean()) ** 4) / m2**2
    z_mean = z.mean() * np.sqrt(n)
    z_var = (z.var(ddof=1) - 1.0) / np.sqrt(2.0 / n)
    z_kurt = (kurt - 3.0) / np.sqrt(24.0 / n)
    assert max(abs(z_mean), abs(z_var), abs(z_kurt)) < 4.0, (z_mean, z_var, z_kurt)


def test_uniforms_in_unit_interval_and_finite_normals():
    ones, zeros = np.uint64(0xFFFFFFFF), np.uint64(0)
    assert _unit(ones, ones) == 1.0 - 2.0**-53
    assert _unit(zeros, zeros) == 0.0
    u = uniforms(3, "inner", np.arange(N_DRAWS), 11)
    assert u.shape == (2, N_DRAWS) and u.min() >= 0.0 and u.max() < 1.0
    extremes = np.array([[0.0, 1.0 - 2.0**-53], [0.25, 0.75]])
    with np.errstate(divide="raise", invalid="raise"):
        pairs = box_muller(extremes)
    assert np.all(np.isfinite(pairs))
    assert np.array_equal(pairs[0], [0.0, 0.0])


def test_high_words_address_distinct_streams():
    big = 2**32
    first = RngStreamSpec(1, 5).uniforms("inner", 8)
    for other in (RngStreamSpec(1 + big, 5), RngStreamSpec(1, 5 + big)):
        assert not np.any(other.uniforms("inner", 8) == first)
    # roles and draw indices address distinct counters too
    assert not np.any(RngStreamSpec(1, 5).uniforms("brownian", 8) == first)
    assert np.array_equal(uniforms(1, "inner", 3, [5, 6])[:, 0], first[:, 3])


def test_one_call_draws_several_roles():
    # a grid of role ids and draw indices reads the same counters as one
    # call per role
    roles = np.array([ROLE_IDS["count"], ROLE_IDS["brownian"], ROLE_IDS["event_times"]])
    got = uniforms(7, roles, np.array([0, 4, 2]), np.array([[3], [2**40 + 1]]))
    for row, stream in enumerate((3, 2**40 + 1)):
        for col, (role, j) in enumerate((("count", 0), ("brownian", 4), ("event_times", 2))):
            alone = RngStreamSpec(7, stream).uniforms(role, j + 1)[:, j]
            assert np.array_equal(got[:, row, col], alone)


def test_package_draws_only_philox_counters():
    # one randomness scheme: a numpy generator in the package would address
    # draws some other way than (seed, role, stream id, counter)
    root = Path(upliftemm.__file__).parent
    hits = [
        f"{path.name}:{n}"
        for path in sorted(root.rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\b(np|numpy)\.random\b", line)
    ]
    assert not hits

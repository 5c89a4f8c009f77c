"""Shared fixtures: the benchmark problem matrix, frozen-fixture access,
and the acceptance-summary reporting hook."""

from __future__ import annotations

import json
import os
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from beattysieve import ProblemSpec
from beattysieve.realnum import LiouvilleSeries, golden_ratio, sqrt2, sqrt3

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
FIXTURE_DIR = os.path.join(REPO, "fixtures")


@pytest.fixture(autouse=True)
def mpmath_precision(request):
    """Run each test at its module's MP_PREC bits (mpmath's default 53
    when unset), so an oracle's precision never depends on which other
    test modules were collected."""
    with mpmath.workprec(getattr(request.module, "MP_PREC", 53)):
        yield


def load_fixture(name: str) -> dict:
    with open(os.path.join(FIXTURE_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


def liouville_tau2() -> LiouvilleSeries:
    return LiouvilleSeries(2, "poly", Fraction(2), c1=2)


def problem_matrix() -> list[ProblemSpec]:
    """Twelve benchmark problems: k in {1,2,3}, exponent patterns
    (1), (1,2), (1,3), (1,2,4), multipliers drawn from the three
    quadratic surds plus one Liouville-type series."""
    s2, s3, phi = sqrt2(), sqrt3(), golden_ratio()
    return (
        [ProblemSpec((a,), (1,)) for a in (s2, s3, phi, liouville_tau2())]
        + [ProblemSpec(p, (1, 2)) for p in ((s2, s3), (s3, phi), (phi, s2))]
        + [ProblemSpec(p, (1, 3)) for p in ((s2, phi), (s3, s2), (phi, s3))]
        + [ProblemSpec(p, (1, 2, 4)) for p in ((s2, s3, phi),
                                               (phi, s3, s2))]
    )


@pytest.fixture(scope="session")
def matrix():
    return problem_matrix()


@pytest.fixture(scope="session")
def density_goldens():
    return load_fixture("density_goldens.json")


@pytest.fixture(scope="session")
def lemma_constants():
    return load_fixture("lemma_constants.json")


def brute_extreme_discrepancy_1d(values: np.ndarray) -> float:
    """O(N^2) float evaluation of the extreme discrepancy.

    Enumerates every point-anchored interval candidate directly: closed
    and open spans between order statistics plus the boundary-anchored
    spans.  Independent of the exact prefix-scan implementation.
    """
    v = np.sort(np.asarray(values, dtype=np.float64))
    n = len(v)
    idx = np.arange(n)
    span = v[None, :] - v[:, None]                  # v_j - v_i
    width = idx[None, :] - idx[:, None]             # j - i
    upper = np.triu((width + 1) / n - span)         # [v_i, v_j] closed
    lower = np.triu(span - (width - 1) / n)         # (v_i, v_j) open
    cands = [upper.max(), lower.max()]
    cands.append(((idx + 1) / n - v).max())         # [0, v_j] closed
    cands.append((v - idx / n).max())               # [0, v_j) open
    cands.append(((n - idx) / n - (1 - v)).max())   # [v_i, 1) closed start
    cands.append(((1 - v) - (n - idx - 1) / n).max())  # (v_i, 1) open start
    return max(cands)


# --- acceptance summary -----------------------------------------------------

ACCEPTANCE_LINES: list[tuple[int, str]] = []


def record_acceptance(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES.append(
        (number, f"criterion {number} [{name}]: {status} — {detail}"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for _, line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)

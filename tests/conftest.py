import resource

import numpy as np
import pytest

from hypokin.anisotropy import chain_model, kinetic_model
from hypokin.fields import AnisoGrid, gaussian_field
from hypokin.spectral import bandlimit


def _peak_rss_mb():
    """Peak resident set size of this process so far (ru_maxrss is in kB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class PeakRssSteps:
    """Lists, in the terminal summary, the tests after which the process's
    peak RSS had risen by more than STEP_MB, fixture set-up and teardown
    included: the tests that set the peak of an in-process run.  The
    session's minor page faults follow, so that an allocator regression
    shows next to the peak."""

    STEP_MB = 5.0

    def __init__(self):
        self.last = _peak_rss_mb()
        self.steps = []

    def pytest_runtest_logfinish(self, nodeid, location):
        peak = _peak_rss_mb()
        if peak - self.last > self.STEP_MB:
            self.steps.append((nodeid, self.last, peak))
        self.last = peak

    def pytest_terminal_summary(self, terminalreporter):
        tr = terminalreporter
        tr.section(f"peak RSS steps above {self.STEP_MB:g} MB")
        for nodeid, before, after in self.steps:
            tr.write_line(f"{before:8.1f} -> {after:8.1f} MB  {nodeid}")
        tr.write_line(f"peak RSS {_peak_rss_mb():.1f} MB")
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        tr.write_line(f"minor page faults {faults:,}")


def pytest_configure(config):
    config.pluginmanager.register(PeakRssSteps(), "peak-rss-steps")


@pytest.fixture(scope="session")
def kinetic():
    return kinetic_model()


@pytest.fixture(scope="session")
def chain3():
    return chain_model((1, 1, 1))


@pytest.fixture(scope="session")
def kinetic_d2():
    """The kinetic model with a two-dimensional noisy block (N = 4), the
    model of the d = 2 config of tests/test_cli.py."""
    return kinetic_model(2)


@pytest.fixture(scope="session")
def grid_d2(kinetic_d2):
    """The grid of the d = 2 config of tests/test_cli.py."""
    return AnisoGrid.build(kinetic_d2.blocks, [24, 24, 16, 16])


@pytest.fixture(scope="session")
def grid128(kinetic):
    """Mid-size kinetic grid for solver tests (J_max = 5)."""
    return AnisoGrid.build(kinetic.blocks, [128, 128])


@pytest.fixture(scope="session")
def grid256(kinetic):
    """The desk-scale kinetic grid (J_max = 6)."""
    return AnisoGrid.build(kinetic.blocks, [256, 256])


@pytest.fixture(scope="session")
def grid_widev(kinetic):
    """Wide velocity box: keeps Gaussian tails off the periodic seam."""
    return AnisoGrid.build(kinetic.blocks, [256, 256],
                           half_extents=[2 * np.pi, np.pi ** 3])


@pytest.fixture(scope="session")
def grid_xfine(kinetic):
    """Grid resolving the position annuli up to J_max - 1 (for the
    per-block derivative-gain and mollification-rate fits)."""
    return AnisoGrid.build(kinetic.blocks, [32, 8192],
                           half_extents=[np.pi, np.pi])


def make_density(grid, sigmas):
    u0 = bandlimit(gaussian_field(grid, sigmas))
    return u0 * (1.0 / float(u0.integral()[0]))


@pytest.fixture(scope="session")
def u0_128(grid128):
    return make_density(grid128, [0.6, 1.0])


@pytest.fixture(scope="session")
def u0_256(grid256):
    return make_density(grid256, [0.6, 0.6])

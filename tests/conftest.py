import sys
import tracemalloc

import numpy as np
import pytest

from chns.grid import Grid, ScalarField, VectorField
from chns.ops import leray_project


@pytest.fixture
def grid32():
    return Grid(32, 32)


@pytest.fixture
def grid_rect():
    return Grid(32, 24, lx=2.0, ly=1.5)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_scalar(grid, rng, amp=1.0):
    return ScalarField(amp * rng.standard_normal((grid.nx, grid.ny)), grid)


def random_vector(grid, rng, amp=1.0):
    uy = amp * rng.standard_normal((grid.nx, grid.ny + 1))
    uy[:, 0] = 0.0
    uy[:, -1] = 0.0
    return VectorField(amp * rng.standard_normal((grid.nx, grid.ny)), uy, grid)


def random_divfree(grid, rng, amp=1.0):
    v, _ = leray_project(random_vector(grid, rng, amp))
    return v


# the memory-plan tests rely on a call moving its arguments into the callee
needs_argument_moves = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="a call moves its arguments into the callee only from CPython 3.11")


def traced_peak_arrays(grid, fn):
    """The traced peak of one ``fn()`` above its entry, in full-grid float arrays.

    ``fn`` runs once untraced first, so cached tables are built outside the
    count.  Use a 64^2 grid or smaller: there every array is below NumPy's
    256 KiB temporary-elision threshold, so no temporary is elided away.  The
    iterator buffers of a ufunc on strided operands count too: a few tens of
    KiB each, up to three arrays at 64^2 with NumPy 2.4.
    """
    fn()
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    return peak / (grid.nx * grid.ny * 8)

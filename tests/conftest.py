import tracemalloc

import numpy as np
import pytest

from dirac_zero_lab import field, potential


def traced_peak_bytes(fn, *args) -> int:
    """Peak bytes that ``fn(*args)`` holds at once beyond what was allocated before the call.

    tracemalloc sees numpy's array buffers, so a memory change can assert a
    budget in bytes instead of quoting a process's resident set size.
    """
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def coordinate_mesh(ax):
    """Dense (N, N, N, 3) lattice coordinates of the 1-D axis ``ax`` by ``np.meshgrid``.

    A reference built independently of the package's broadcast coordinates.
    """
    return np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1)


@pytest.fixture(scope="session")
def grid16():
    return field.make_grid(16.0, 32)


@pytest.fixture(scope="session")
def grid24():
    return field.make_grid(24.0, 48)


@pytest.fixture(scope="session")
def ly16(grid16):
    return potential.loss_yau(grid16)


@pytest.fixture(scope="session")
def ly24(grid24):
    return potential.loss_yau(grid24)


@pytest.fixture(scope="session")
def q_ly16(grid16, ly16):
    return potential.from_em(None, ly16.vector_potential, grid16)

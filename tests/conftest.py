import pytest

from dirac_zero_lab import field, potential


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

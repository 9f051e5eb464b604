import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from factcong.field import PrimeContext

settings.register_profile(
    "default",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(scope="session")
def ctx7():
    return PrimeContext.create(7, with_dlog=True)


@pytest.fixture(scope="session")
def ctx11():
    return PrimeContext.create(11, with_dlog=True)


@pytest.fixture(scope="session")
def ctx31():
    return PrimeContext.create(31, with_dlog=True)


@pytest.fixture(scope="session")
def ctx101():
    return PrimeContext.create(101, with_dlog=True)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0x5EED)

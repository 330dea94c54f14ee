import pytest

from confrelay import Neighbors, NetworkConfig, PointMass, model, sample_realization


@pytest.fixture(autouse=True)
def no_first_rows():
    """Each test starts with no first rows kept on this thread, so what it
    draws does not depend on the walks an earlier test left behind."""
    model._THREAD.first_rows = None


@pytest.fixture
def two_relay_point_mass():
    """Two relays, one conferencing neighbor, all-unit deterministic channels."""
    cfg = NetworkConfig(n_relays=2, conferencing=Neighbors(1),
                        h_dist=PointMass(1), g_dist=PointMass(1))
    real = sample_realization(cfg, 0)
    return cfg, real

import pytest

from confrelay import Neighbors, NetworkConfig, PointMass, sample_realization


@pytest.fixture
def two_relay_point_mass():
    """Two relays, one conferencing neighbor, all-unit deterministic channels."""
    cfg = NetworkConfig(n_relays=2, conferencing=Neighbors(1),
                        h_dist=PointMass(1), g_dist=PointMass(1))
    real = sample_realization(cfg, 0)
    return cfg, real

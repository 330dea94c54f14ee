import pytest

from confrelay import Neighbors, NetworkConfig, PointMass, model, montecarlo, sample_realization


def rate_rows(cfg, trials, seed, schemes):
    """Each scheme's per-trial rates at ``cfg``, by name: the rows of
    ``montecarlo._rate_table``'s table."""
    [(names, table)] = montecarlo._rate_table([(cfg, schemes)], trials, seed)
    return dict(zip(names, table))


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


def record_fills(monkeypatch, record):
    """Call ``record(z, states)`` at every ``model._Fill`` the test makes:
    each row the trial engine draws goes through one."""

    class Recorded(model._Fill):
        def __init__(self, z, states, square=False):
            record(z, states)
            super().__init__(z, states, square)

    monkeypatch.setattr(model, "_Fill", Recorded)


@pytest.fixture
def drawn(monkeypatch):
    """(rows, normals per row) of every ``model._Fill`` the test makes."""
    drawn = []
    record_fills(monkeypatch, lambda z, states: drawn.append((len(states), z.shape[1])))
    return drawn


@pytest.fixture
def derived(monkeypatch):
    """Seeds per ``model._pcg64_states`` call the test makes."""
    derived = []
    pcg64_states = model._pcg64_states

    def counted(seeds, order):
        derived.append(len(seeds))
        return pcg64_states(seeds, order)

    monkeypatch.setattr(model, "_pcg64_states", counted)
    return derived

import pytest

from cutpoly import ehrhart, graph
from cutpoly.graph import complete_bipartite, configuration, cycle, path
from cutpoly.lattice import lattice_basis
from cutpoly.ehrhart import semigroup_counts


@pytest.fixture(scope="session")
def k23_config():
    return configuration(complete_bipartite(2, 3))


@pytest.fixture(scope="session")
def k22_config():
    return configuration(complete_bipartite(2, 2))


@pytest.fixture(scope="session")
def c4_config():
    return configuration(cycle(4))


@pytest.fixture(scope="session")
def k2_config():
    return configuration(path(1))


@pytest.fixture(scope="session")
def k23_basis(k23_config):
    return lattice_basis(k23_config)


@pytest.fixture(scope="session")
def k23_counts(k23_config):
    """Semigroup-route counts for dilates 0..7 of Cut(K_{2,3}), shared across tests."""
    return semigroup_counts(k23_config, 7)


@pytest.fixture(autouse=True)
def fresh_lp_route():
    """Each test builds its own LP route and configuration columns: ones
    cached for an equal graph by an earlier test would bypass a test's patches
    of the pieces that build them."""
    ehrhart._lp_route.cache_clear()
    graph._columns.cache_clear()


@pytest.fixture
def layers_built(monkeypatch):
    """A one-item list counting the semigroup kernel's layer steps."""
    built = [0]
    step = ehrhart._sumset_step

    def spy(*args):
        built[0] += 1
        return step(*args)

    monkeypatch.setattr(ehrhart, "_sumset_step", spy)
    return built

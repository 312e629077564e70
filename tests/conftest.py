from fractions import Fraction

import pytest
from hypothesis import settings

import balex

# Fixed examples and no example database: every tier-1 run draws the same cases.
settings.register_profile("tier1", derandomize=True, database=None, max_examples=25, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def table_graph():
    """The standard small fixture: n=4, d=3, m=4, seed 7."""
    return balex.sample_table(4, 3, 4, seed=7)


@pytest.fixture(scope="session")
def sharp_graph():
    """n=4, d=9 table passing the exact extractor check at k=2, eps=1/16,
    so congestion bounds with 2*sqrt(eps) = 1/2 are non-vacuous."""
    g = balex.sample_table(4, 9, 4, seed=0)
    rep = balex.verify_extractor_exact(g, 2, Fraction(1, 16))
    assert rep.passed, "fixture graph must pass at k=2, eps=1/16"
    return g


@pytest.fixture(scope="session")
def identity_table_graph():
    """EXT(x, y) = x as an explicit table (n = m = 4, d = 2)."""
    import numpy as np

    n, d = 4, 2
    table = np.repeat(np.arange(1 << n, dtype=np.uint8), 1 << d)
    return balex.ExtractorGraph(n, d, n, table=table)


@pytest.fixture(scope="session")
def constant_table_graph():
    """EXT(x, y) = 0 as an explicit table (n=4, d=2, m=4)."""
    import numpy as np

    table = np.zeros(1 << 6, dtype=np.uint8)
    return balex.ExtractorGraph(4, 2, 4, table=table)


@pytest.fixture(scope="session")
def wide_table_graph():
    """n=2, d=1, m=64 table with entries past 2^63; a = -62, so every view has
    more right bits (63 or 64) than the table has index bits (3)."""
    import numpy as np

    table = np.array(
        [2**63 + 5, 7, 2**63 + 9, 2**64 - 1, 7, 2**63, 2**62 + 3, 2**63 + 9], dtype=np.uint64
    )
    return balex.ExtractorGraph(2, 1, 64, table=table)


@pytest.fixture(scope="session")
def linear_graph_12():
    """Counter-expansion linear graph: n=12, d=4, m=8 (a=4), seed 42."""
    expansion = balex.SeedExpansion("counter", s=8, m=8, seed=42)
    return balex.linear_graph(n=12, d=4, expansion=expansion)


@pytest.fixture(scope="session")
def identity_linear_graph(tmp_path_factory):
    """A_y = I for every y, built through the external expansion scheme."""
    from balex.lineargraph import save_pair_table

    n = 4
    d = 2
    path = tmp_path_factory.mktemp("expansion") / "identity.json"
    rows = [[(0, 1 << (n - 1 - i)) for i in range(n)] for _ in range(1 << d)]
    save_pair_table(path, s=n, m=n, pairs=rows)
    expansion = balex.SeedExpansion("external", s=n, m=n, table_path=str(path))
    return balex.linear_graph(n=n, d=d, expansion=expansion)

"""Every test starts with pbbs._scatter's one-entry memo empty, so a test
that counts the scattering passes a call makes does not depend on which
state the test before it scattered last."""

import pytest

from boxball import pbbs


@pytest.fixture(autouse=True)
def _cold_scatter_memo():
    pbbs._scatter.cache_clear()

"""Shared fixtures."""

import pytest

from hypergw import hyper, polys, residues, series


def _clear_caches():
    for module in (hyper, polys, residues, series):
        for stage in vars(module).values():
            if hasattr(stage, "cache_clear"):
                stage.cache_clear()


@pytest.fixture
def cold_stages():
    """Empty every cached stage, so the test sees each stage built, and again
    after it, so nothing the test built (under a patch, say) stays cached for
    later tests."""
    _clear_caches()
    yield
    _clear_caches()

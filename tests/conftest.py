"""Shared fixtures."""

import pytest

from hypergw import hyper


@pytest.fixture
def cold_stages():
    """Empty every cached hyper stage, so the test sees each stage built."""
    for stage in vars(hyper).values():
        if hasattr(stage, "cache_clear"):
            stage.cache_clear()

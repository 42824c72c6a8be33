"""Shared test setup."""

from __future__ import annotations

import gc

import pytest


@pytest.fixture(autouse=True)
def _collect_what_barriers_froze():
    """Every checkpoint barrier freezes the heap (``gc.freeze()``). Tests
    drop their engines without closing them, so after each test what
    was frozen goes back to the collector — as an application that
    drops an engine does (``RailgunCluster.close`` does it too) — and a
    finished test's reference cycles do not stay for the whole session.
    """
    yield
    gc.unfreeze()

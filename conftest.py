"""Suite-wide fixtures: the test run keeps its caches to itself."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session", autouse=True)
def session_caches(tmp_path_factory):
    """Point the ATPG and study result caches at per-session directories.

    The suite then never reads or writes ``~/.cache``: every run
    characterises the component library from scratch, once per session
    (``component_backannotation`` memoizes in process), and subprocesses
    the tests start inherit the same directories.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_ATPG_CACHE", str(tmp_path_factory.mktemp("atpg")))
        patch.setenv("REPRO_CAMPAIGN_CACHE", str(tmp_path_factory.mktemp("campaign")))
        yield

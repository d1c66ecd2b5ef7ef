import os

import pytest

from pseudospec import numkernel


@pytest.fixture(params=[1, 2, 3], ids=lambda w: f"workers{w}")
def engine_workers(request, monkeypatch):
    """The slice runner with 1, 2 or 3 workers, on a pool of its own."""
    monkeypatch.setattr(numkernel, "_WORKERS", request.param)
    numkernel._pool.cache_clear()
    yield request.param
    if numkernel._pool.cache_info().currsize:
        numkernel._pool(os.getpid()).shutdown()
        numkernel._pool.cache_clear()

import pytest

from pseudospec import numkernel


@pytest.fixture(params=[1, 2, 3], ids=lambda w: f"workers{w}")
def engine_workers(request, monkeypatch):
    """The slice runner with 1, 2 or 3 workers, on a pool of its own."""
    monkeypatch.setattr(numkernel, "_WORKERS", request.param)
    monkeypatch.setattr(numkernel, "_pool", None)
    yield request.param
    if numkernel._pool is not None:
        numkernel._pool.shutdown()

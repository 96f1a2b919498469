"""Shared farm-test fixtures."""

import pytest

from repro.farm import farm as farm_module
from repro.faults import ResiliencePolicy


@pytest.fixture(autouse=True)
def fast_retry(monkeypatch):
    """Near-zero retry backoff, so retry tests don't sleep for real."""
    monkeypatch.setattr(farm_module, "RETRY_POLICY", ResiliencePolicy(
        backoff_base=1, backoff_factor=1.0, backoff_cap=1))


@pytest.fixture
def pool_spy():
    """Record every process pool a farm builds and how it is shut down.

    ``pool_spy(farm)`` returns a list that fills with one
    ``{"pool": executor, "wait": <shutdown wait flag or None>}`` record
    per pool the farm creates during its runs.
    """

    def spy(farm):
        pools = []
        make = farm._make_executor

        def tracked():
            pool = make()
            record = {"pool": pool, "wait": None}
            shutdown = pool.shutdown

            def recording_shutdown(wait=True, **kwargs):
                record["wait"] = wait
                shutdown(wait=wait, **kwargs)

            pool.shutdown = recording_shutdown
            pools.append(record)
            return pool

        farm._make_executor = tracked
        return pools

    return spy

"""Farm process-pool lifecycle, the timeout digest, and the non-TTY
progress fallback."""

import io
import sys

import pytest

from repro.farm.farm import Farm
from repro.farm.job import JobSpec
from repro.faults import ResiliencePolicy

FAKEAPP = "tests.farm._fakeapp"


def spec(n_tasks=4):
    return JobSpec(app=FAKEAPP, variant="fractal", n_cores=2,
                   input_kwargs={"n_tasks": n_tasks})


class TestPoolLifecycle:
    def test_pool_torn_down_after_run(self, pool_spy):
        farm = Farm(jobs=2)
        pools = pool_spy(farm)
        (res,) = farm.run([spec(4)])
        assert res.ok
        assert len(pools) == 1
        assert pools[0]["wait"] is False        # shut down, not waited on
        with pytest.raises(RuntimeError):       # no new work after shutdown
            pools[0]["pool"].submit(int)

    def test_single_job_farm_never_builds_a_pool(self, pool_spy):
        farm = Farm(jobs=1)
        pools = pool_spy(farm)
        results = farm.run([spec(4), spec(6)])
        assert [r.stats.tasks_committed for r in results] == [4, 6]
        assert pools == []


class TestTimeoutDigest:
    def test_timeout_changes_digest_consistently(self):
        s = spec()
        farm = Farm(jobs=2, timeout_s=5.0)
        timed = farm._with_timeout(s)
        assert timed.digest() != s.digest()
        assert timed.resilience.max_wall_seconds == 5.0
        # idempotent: re-applying the same budget keeps the digest
        assert farm._with_timeout(timed).digest() == timed.digest()
        # no timeout: the spec (and its content address) is unchanged
        assert Farm(jobs=2)._with_timeout(s) is s

    def test_timeout_keeps_tighter_existing_budget(self):
        s = JobSpec(app=FAKEAPP, variant="fractal", n_cores=2,
                    input_kwargs={"n_tasks": 4},
                    resilience=ResiliencePolicy(max_wall_seconds=1.0))
        farm = Farm(jobs=2, timeout_s=5.0)
        assert farm._with_timeout(s).resilience.max_wall_seconds == 1.0


class _FakeTty(io.StringIO):
    def isatty(self):
        return True


class TestProgressStreams:
    def run_with_stderr(self, monkeypatch, stream, **farm_kw):
        monkeypatch.setattr(sys, "stderr", stream)
        farm = Farm(jobs=1, progress=True, **farm_kw)
        farm.run([spec(4)])
        return stream.getvalue()

    def test_tty_uses_carriage_return_line(self, monkeypatch):
        out = self.run_with_stderr(monkeypatch, _FakeTty())
        assert "\r" in out
        assert "[farm] 1/1 jobs" in out

    def test_non_tty_emits_plain_periodic_lines(self, monkeypatch):
        out = self.run_with_stderr(monkeypatch, io.StringIO())
        assert "\r" not in out                  # no carriage-return spam
        assert "[farm] 1/1 jobs" in out         # final summary line
        # every line is a complete plain-text record
        for line in out.strip().splitlines():
            assert line.startswith("[farm] ")

    def test_non_tty_lines_are_rate_limited(self, monkeypatch):
        stream = io.StringIO()
        monkeypatch.setattr(sys, "stderr", stream)
        farm = Farm(jobs=1, progress=True)
        farm.progress_interval_s = 3600.0       # only the final line fits
        farm.run([spec(4), spec(5), spec(6)])
        lines = [ln for ln in stream.getvalue().splitlines() if ln]
        assert 1 <= len(lines) <= 2             # first tick + final line
        assert "[farm] 3/3 jobs" in lines[-1]

"""`pool.ordered`, the one fan-out of jobs to the worker processes, run on stdlib jobs."""

import time

import pytest

from dcnpd import pool


def job(module: str, name: str, *args, pooled: bool = True) -> tuple:
    return module, name, args, pooled


SQRT4, SQRT9 = job("math", "sqrt", 4.0), job("math", "sqrt", 9.0)


def no_busy_worker() -> bool:
    return not set(pool._live).difference(pool._idle)


def warm(k: int) -> None:
    """Leave k idle workers that have started, so their empty jobs are answered at once."""
    assert list(pool.ordered([SQRT4] * k, k)) == [2.0] * k


class TestOrdered:
    def test_values_come_in_job_order_when_a_later_job_finishes_first(self):
        warm(2)
        start = time.monotonic()
        values = list(pool.ordered([job("time", "sleep", 0.5), job("time", "monotonic")], 2))
        assert values[0] is None and values[1] < start + 0.5  # the clock is the machine's
        assert no_busy_worker()

    def test_the_lowest_worker_error_is_raised_and_no_job_is_pulled_past_it(self):
        warm(2)
        pulled = []

        def jobs():
            yield SQRT4
            yield job("builtins", "exec", "import time; time.sleep(0.5); 1 / 0")  # fails late
            yield job("math", "sqrt", -1.0)  # fails at once
            for n in range(10):
                pulled.append(n)
                yield SQRT9

        values = []
        with pytest.raises(ZeroDivisionError):
            values.extend(pool.ordered(jobs(), 2))
        assert values == [2.0]
        assert pulled == [0]  # made while it waited for a worker; it never started
        assert no_busy_worker()

    def test_an_error_making_a_job_comes_after_the_values_below_it(self):
        def jobs():
            yield SQRT4
            yield SQRT9
            raise LookupError("no third job")

        values = []
        with pytest.raises(LookupError, match="no third job"):
            values.extend(pool.ordered(jobs(), 2))
        assert values == [2.0, 3.0]
        assert no_busy_worker()

    @pytest.mark.parametrize("here", [False, True])
    def test_k_zero_runs_every_job_here(self, monkeypatch, here):
        monkeypatch.setattr(pool, "_take", lambda: pytest.fail("a worker was taken"))
        jobs = [SQRT4, job("math", "sqrt", 9.0, pooled=False)]
        assert list(pool.ordered(jobs, 0, here)) == [2.0, 3.0]

    def test_closing_kills_the_worker_holding_a_job(self):
        warm(2)
        jobs = [job("time", "sleep", 0.5), job("time", "sleep", 60), SQRT9]
        values = pool.ordered(jobs, 2)
        assert next(values) is None
        holding = set(pool._live).difference(pool._idle)
        start = time.monotonic()
        values.close()
        assert time.monotonic() - start < 5
        assert len(holding - pool._live) == 1  # the worker sleeping, killed
        assert all(worker.proc.returncode is not None for worker in holding - pool._live)
        assert no_busy_worker()

    def test_closing_gives_back_a_worker_still_owing_its_reply(self):
        owing = pool._take()
        owing.start("time", "sleep", 1)
        owing.owes = True  # as a worker given back before its empty job's reply came
        pool._give(owing)
        values = pool.ordered([SQRT4, SQRT9], 1, here=True)
        assert next(values) == 2.0  # run here: the one worker taken had not replied
        values.close()
        assert owing in pool._idle and owing.owes and owing.proc.poll() is None
        assert list(pool.ordered([SQRT4, SQRT9], 1)) == [2.0, 3.0]  # it reads that reply first
        assert not owing.owes

    def test_a_job_not_pooled_waits_for_the_held_ones(self):
        start = time.monotonic()
        jobs = [job("time", "sleep", 0.5), job("time", "monotonic", pooled=False)]
        assert list(pool.ordered(jobs, 1))[1] >= start + 0.5
        assert no_busy_worker()

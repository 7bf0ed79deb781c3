"""Persistent worker processes, child interpreters that run named functions.

A job names its function as ``(module, name, args)``: the worker imports the
module, calls the function and replies ``(warnings, value, error, traceback)``.
This module imports nothing from the package, so any of its modules may use it.
"""

from __future__ import annotations

import atexit
import importlib
import os
import pickle
import select
import signal
import subprocess
import sys
import traceback
import warnings
from pathlib import Path

_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_idle: list["_Worker"] = []  # started, healthy and free for the next call
_live: set = set()  # every worker not yet reaped; those not idle are running a job


class _Worker:
    """A child interpreter with single-threaded BLAS that runs jobs for `_serve`."""

    def __init__(self):
        paths = (str(Path(__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
        env = {**os.environ, **dict.fromkeys(_BLAS_THREADS, "1")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
        self.proc = subprocess.Popen(
            [sys.executable, "-c", "from dcnpd.pool import _serve; _serve()"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        )
        _live.add(self)
        self.owes = False  # set by a caller that does not read its job's reply: `start` does

    def fileno(self) -> int:  # select waits on the reply pipe
        return self.proc.stdout.fileno()

    def start(self, module: str, name: str, *args) -> None:
        """Send the job ``module.name(*args)``, once any reply it `owes` is read; it may be lost."""
        try:
            if self.owes:
                pickle.load(self.proc.stdout)
                self.owes = False
            pickle.dump((module, name, args), self.proc.stdin, pickle.HIGHEST_PROTOCOL)
            self.proc.stdin.flush()
        except Exception as e:  # the worker died, or the job did not pickle
            raise _lost(self, e)

    def result(self):
        """The job's value once the worker replies; the worker stays its caller's.

        The job's warnings are re-issued here, under this process's filters, and
        its error is raised with the worker's traceback as its cause.
        """
        try:
            warned, value, error, trace = pickle.load(self.proc.stdout)
        except Exception as e:  # the worker died
            raise _lost(self, e)
        for message, category in warned:
            warnings.warn(message, category)
        if error is not None:
            error.__cause__ = _RemoteTraceback(trace)
            raise error
        return value

    def close(self, kill: bool = False) -> int:
        """Reap the worker: killed, or ended by closing its input; returns its exit code."""
        _live.discard(self)
        if kill:
            self.proc.kill()
        try:
            self.proc.stdin.close()
        except OSError:  # the pipe broke: the worker is gone already
            pass
        code = self.proc.wait()
        self.proc.stdout.close()
        return code


def _take() -> _Worker:
    """An idle worker, or a new one, for the caller until `_give`; one that does not start is lost."""
    try:
        return _idle.pop() if _idle else _Worker()
    except Exception as e:
        raise _lost(None, e)


def _give(worker: _Worker) -> None:
    """Make a taken worker idle again, unless it was lost or killed."""
    if worker in _live:
        _idle.append(worker)


def _ready(workers, timeout: float | None = None) -> list[_Worker]:
    """Those of ``workers`` whose reply is ready within ``timeout`` s (None: one at least)."""
    return select.select(list(workers), [], [], timeout)[0]


def _lost(worker: _Worker | None, e: Exception) -> RuntimeError:
    """Kill a worker that did not start, take or answer its job, and the idle ones; the error."""
    code = worker and worker.close(kill=True)
    while _idle:  # idle workers may be gone too: later calls start afresh
        _idle.pop().close(kill=True)
    return RuntimeError(f"worker process lost ({type(e).__name__}: {e}), exit code {code}")


@atexit.register
def _close_workers() -> None:
    for worker in list(_live):
        worker.close(kill=worker.owes or worker not in _idle)


def _serve() -> None:
    """A worker's loop: read a pickled job, write ``(warnings, value, error, traceback)``."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller kills busy workers on a Ctrl-C
    jobs, replies = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr  # a stray print must not corrupt the reply stream
    while True:
        try:
            module, name, args = pickle.load(jobs)
        except EOFError:
            return
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                reply = (getattr(importlib.import_module(module), name)(*args), None, None)
            except Exception as e:
                try:
                    pickle.loads(pickle.dumps(e))
                except Exception:  # an exception that cannot cross travels as its text
                    e = Exception(str(e))
                reply = (None, e, traceback.format_exc())
        pickle.dump(([(str(w.message), w.category) for w in caught], *reply), replies)
        replies.flush()


class _RemoteTraceback(Exception):
    """A worker's traceback text, chained as the cause of the error it raised."""

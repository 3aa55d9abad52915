"""Shared fixtures."""

import contextlib

import pytest

from edgereid import transition as tr


@pytest.fixture(scope="session")
def eval_workers():
    """`with eval_workers(n):` makes every TransitionNet.eval_logits call
    run on n workers, whatever its size and the runner's CPUs, a single-core
    runner included. Session-scoped, so that hypothesis tests can use it."""
    @contextlib.contextmanager
    def force(count):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tr, "_eval_workers", lambda n: count)
            yield
    return force

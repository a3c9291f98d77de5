"""Checks that every test of the suite gets."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that ends with a live thread it did not start with.

    Every thread the library starts is joined before the call that started
    it returns, so a thread left running leaks from a call the test made.
    """
    before = threading.enumerate()
    yield
    left = [thread for thread in threading.enumerate() if thread not in before]
    assert not left, f"threads left running: {left}"

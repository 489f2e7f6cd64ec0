"""Shared fixtures."""

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) wraps module.name for this test and returns
    the list of argument tuples its calls append."""

    def wrap(module, name):
        calls = []
        real = getattr(module, name)

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(module, name, counted)
        return calls

    return wrap

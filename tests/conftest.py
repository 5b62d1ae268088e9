import importlib

import pytest


@pytest.fixture
def count(monkeypatch):
    """Count calls: ``count(module, name, bindings)`` wraps ``module.name``, and the copy each
    module in ``bindings`` imported, and returns a one-item list holding the number of calls."""

    def install(module, name, bindings=()):
        calls = [0]
        real = getattr(module, name)

        def counting(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        for owner in (module, *bindings):
            monkeypatch.setattr(owner, name, counting)
        return calls

    return install


@pytest.fixture
def wave_sizes(monkeypatch):
    """Record the number of restarts in each wave a search runs, in order, in the returned list."""
    search_module = importlib.import_module("locc_witness.search")  # the package's `search` shadows it
    sizes = []
    real = search_module._minimize_together

    def recording(runs, evaluate):
        sizes.append(len(runs))
        return real(runs, evaluate)

    monkeypatch.setattr(search_module, "_minimize_together", recording)
    return sizes

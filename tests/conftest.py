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

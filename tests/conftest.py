import pytest


@pytest.fixture
def spy(monkeypatch):
    """spy(module, name, fail=None) replaces module.name, for the test, with a
    wrapper that passes every argument through, and returns the list of
    (args, result) of each call that returned. With fail, the wrapper raises
    fail and calls nothing. Profilers and work budgets wrap the same names,
    so a test that spies on them sees the work they would see."""
    def install(module, name, fail=None):
        original, calls = getattr(module, name), []

        def wrapper(*args, **kwargs):
            if fail is not None:
                raise fail
            result = original(*args, **kwargs)
            calls.append((args, result))
            return result

        monkeypatch.setattr(module, name, wrapper)
        return calls
    return install

import pytest

from qschur.verify import SUITES


@pytest.fixture
def check_suite():
    """Run a named suite at the given bounds; fail on any failure or when
    the suite checked no case."""

    def check(name, **bounds):
        cases, failures = SUITES[name](**bounds)
        assert not failures, failures[:10]
        assert cases > 0, f"suite {name} checked 0 cases at {bounds}"
        return cases

    return check


@pytest.fixture
def forbid(monkeypatch):
    """Replace each named attribute of an owner with a function that
    raises ``AssertionError(reason)``: ``forbid(owner, names, reason)``."""

    def patch(owner, names, reason):
        def forbidden(*args, **kwargs):
            raise AssertionError(reason)

        for name in names:
            monkeypatch.setattr(owner, name, forbidden)

    return patch

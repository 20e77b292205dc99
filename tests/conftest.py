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

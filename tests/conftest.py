import pytest

from qschur.verify import SUITES


@pytest.fixture(scope="session")
def _suite_results():
    return {}


@pytest.fixture
def check_suite(_suite_results):
    """Run a named suite at the given bounds; fail on any failure or when
    the suite checked no case.  Each (suite, bounds) pair runs once per
    session, so an acceptance criterion and the unit tests named after
    the properties its suite checks share one run of the loop."""

    def check(name, **bounds):
        key = (name, tuple(sorted(bounds.items())))
        if key not in _suite_results:
            _suite_results[key] = SUITES[name](**bounds)
        cases, failures = _suite_results[key]
        assert not failures, failures[:10]
        assert cases > 0, f"suite {name} checked 0 cases at {bounds}"
        return cases

    return check

import pytest
from hypothesis import settings

# Property tests draw the same examples on every run, and have no
# per-example deadline for a slow or loaded machine to trip.
settings.register_profile("basekit", derandomize=True, deadline=None)
settings.load_profile("basekit")


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="run slow acceptance checks (large wreath coset actions)",
    )


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: needs --runslow (long-running searches)")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)

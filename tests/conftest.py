"""Shared test configuration: the ``slow`` marker.

Every test that uses the acceptance suite's ``scaling_runs`` fixture (a grid
of full runs, most of the suite's wall time) is marked ``slow``, so
``pytest -m "not slow"`` gives a fast edit loop. A plain ``pytest`` still runs
everything.
"""

import pytest


def pytest_collection_modifyitems(items):
    for item in items:
        if "scaling_runs" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.slow)

import pytest

from quoptics import dynamics


@pytest.fixture
def plans(monkeypatch) -> list:
    """List that collects (D, plan) of every propagation the test makes."""
    recorded = []
    plan_route = dynamics._plan_route

    def record(b, steps, width):
        recorded.append((b.shape[0], plan_route(b, steps, width)))
        return recorded[-1][1]

    monkeypatch.setattr(dynamics, "_plan_route", record)
    return recorded

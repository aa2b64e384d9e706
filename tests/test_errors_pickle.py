"""Every ``ReproError`` subclass must survive a pickle round trip.

Errors cross process boundaries (batch workers) and thread boundaries
(front-door futures); an exception whose custom constructor breaks the
default ``cls(*args)`` replay surfaces as an opaque ``PicklingError`` at
the worst possible moment. This test walks the *live* exception
hierarchy — so a newly added subclass is covered automatically — and
asserts type, message, and structured fields all survive.
"""

from __future__ import annotations

import pickle

import pytest

# Importing the package pulls in every module that defines ReproError
# subclasses, including the sanctioned fault taxonomy in
# repro.robust.faults.
import repro  # noqa: F401
from repro.errors import ReproError

#: Constructor arguments for classes whose __init__ is not (message,).
_SAMPLE_ARGS = {
    "OptimizationBudgetExceeded": ("costing", 1000.0, 1001.0),
    "InjectedBudgetExceeded": ("costing", 5.0, 6.0),
    "AdmissionRejected": ("queue-full", "admission queue at capacity (8)"),
    "TenantBudgetExhausted": ("tenant-9", 0.125),
}


def _all_error_classes() -> list[type]:
    seen: set[type] = set()

    def walk(cls: type) -> None:
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.add(sub)
                walk(sub)

    walk(ReproError)
    return sorted(seen, key=lambda cls: cls.__name__)


def _sample(cls: type) -> ReproError:
    args = _SAMPLE_ARGS.get(cls.__name__, (f"synthetic {cls.__name__}",))
    return cls(*args)


@pytest.mark.parametrize("cls", _all_error_classes(), ids=lambda c: c.__name__)
def test_round_trip_preserves_everything(cls):
    original = _sample(cls)
    clone = pickle.loads(pickle.dumps(original))
    assert type(clone) is cls
    assert str(clone) == str(original)
    assert clone.__dict__ == original.__dict__


def test_hierarchy_walk_found_the_serving_errors():
    """The walk covers the classes this PR leans on (guards the walker)."""
    names = {cls.__name__ for cls in _all_error_classes()}
    assert {
        "AdmissionRejected",
        "TenantBudgetExhausted",
        "OptimizationBudgetExceeded",
        "OptimizationCancelled",
    } <= names


def test_extra_attributes_travel_too():
    """__reduce__ carries the instance dict, not just constructor args."""
    original = _sample_with_annotation()
    clone = pickle.loads(pickle.dumps(original))
    assert clone.query_label == "star-12"
    assert clone.reason == "queue-full"


def _sample_with_annotation():
    from repro.errors import AdmissionRejected

    exc = AdmissionRejected("queue-full", "capacity 8")
    exc.query_label = "star-12"
    return exc

"""The eight acceptance criteria, one test each, and their sample sizes.

Every criterion test prints the criterion's single status line (visible
under pytest -s or on failure) and asserts the pass flag.  Seeds, sample
counts and time budgets live in the acceptance module itself, so the
full criteria run here, not reduced stand-ins.
"""

from types import SimpleNamespace

import pytest

from ncmoduli import acceptance
from ncmoduli.errors import DomainError


def _check(result):
    print(result.line())
    assert result.passed, result.line()


def test_criterion_1():
    _check(acceptance.criterion_1())


def test_criterion_2():
    _check(acceptance.criterion_2())


def test_criterion_3():
    _check(acceptance.criterion_3())


def test_criterion_4():
    _check(acceptance.criterion_4())


def test_criterion_5():
    _check(acceptance.criterion_5())


def test_criterion_6():
    _check(acceptance.criterion_6())


def test_criterion_7():
    _check(acceptance.criterion_7())


def test_criterion_8():
    _check(acceptance.criterion_8())


def test_a_criterion_over_its_budget_fails(monkeypatch):
    # a clock that reads 0 and then 61: criterion 5 takes 61 s of its 60
    assert acceptance._TIME_BUDGETS[5] == 60
    monkeypatch.setattr(acceptance, "time", SimpleNamespace(perf_counter=iter((0, 61)).__next__))
    result = acceptance.criterion_5()
    assert not result.passed
    assert result.detail.endswith("match the frozen sequence and the oracle; exceeded the 60s budget")
    assert result.seconds == 61
    assert result.line() == f"criterion 5 [FAIL] graded dimensions: {result.detail}"


def test_non_positive_sample_sizes_raise():
    # None keeps the default sizes; 0 used to run them and -3 reported FAIL
    with pytest.raises(ValueError, match="samples must be positive, got 0"):
        acceptance.criterion_1(samples=0)
    with pytest.raises(ValueError, match="samples must be positive, got -3"):
        acceptance.run_acceptance(samples=-3)


def test_sample_sizes_above_the_cap_raise():
    # no sweep runs at the cap here: a sweep that size takes seconds
    cap = acceptance.MAX_SAMPLES
    assert acceptance._sample_size(cap, 200) == cap
    assert acceptance._sample_size(None, 200) == 200
    message = f"samples must be at most {cap}, got {cap + 1}"
    with pytest.raises(DomainError, match=message):
        acceptance.criterion_1(samples=cap + 1)
    with pytest.raises(DomainError, match=message):
        acceptance.run_acceptance(samples=cap + 1)


@pytest.mark.parametrize("criterion", acceptance.CRITERIA, ids=lambda fn: fn.__name__)
def test_every_criterion_refuses_sample_sizes_out_of_range(criterion):
    # the fixed checks read no sweep size, and still refuse a bad one
    with pytest.raises(ValueError, match="samples must be positive, got 0"):
        criterion(samples=0)
    with pytest.raises(DomainError, match=f"got {acceptance.MAX_SAMPLES + 1}"):
        criterion(samples=acceptance.MAX_SAMPLES + 1)


def test_run_acceptance_checks_samples_before_any_criterion(monkeypatch):
    calls = []

    def record(seed, samples):
        calls.append((seed, samples))

    monkeypatch.setattr(acceptance, "CRITERIA", (record,) + acceptance.CRITERIA)
    with pytest.raises(ValueError, match="samples must be positive, got 0"):
        acceptance.run_acceptance(samples=0)
    with pytest.raises(DomainError):
        acceptance.run_acceptance(samples=acceptance.MAX_SAMPLES + 1)
    assert calls == []

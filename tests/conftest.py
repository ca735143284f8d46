"""Shared acceptance bookkeeping: each criterion records one verdict line
that is printed after the run, whether output capture is on or not. Also
the whole-document comparison that the property tests share."""

import time
from contextlib import contextmanager

# (number, label, ok, elapsed seconds, budget seconds or None)
ACCEPTANCE_RESULTS = []


def assert_same_text(got, expect):
    """Fail unless two whole documents (str or bytes) are equal, naming the
    first differing offset and about 80 characters around it on each side.

    The comparison is one bool: pytest would explain a failing == between
    two long texts with a full diff, and Hypothesis fails it again at every
    shrink step, so a broken writer took minutes to report."""
    if got == expect:
        return
    at = next((i for i, (a, b) in enumerate(zip(got, expect)) if a != b),
              min(len(got), len(expect)))
    lo = max(at - 40, 0)
    raise AssertionError(
        f"documents differ at offset {at} (lengths {len(got)} and {len(expect)}):\n"
        f"  got    {got[lo:at + 40]!r}\n  expect {expect[lo:at + 40]!r}"
    )


@contextmanager
def criterion(number, label, budget=None):
    """Time a criterion body and record its pass/fail verdict.

    A body that raises records FAIL and re-raises; a body that finishes
    but blows its time budget records FAIL and fails the test.
    """
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        ACCEPTANCE_RESULTS.append((number, label, False, time.perf_counter() - t0, budget))
        raise
    elapsed = time.perf_counter() - t0
    ok = budget is None or elapsed < budget
    ACCEPTANCE_RESULTS.append((number, label, ok, elapsed, budget))
    assert ok, f"criterion {number} exceeded its budget: {elapsed:.2f}s >= {budget}s"


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, label, ok, elapsed, budget in sorted(ACCEPTANCE_RESULTS):
        verdict = "PASS" if ok else "FAIL"
        budget_note = f" / budget {budget:g}s" if budget is not None else ""
        terminalreporter.write_line(
            f"criterion {number:2d} [{verdict}] {label} ({elapsed:.2f}s{budget_note})"
        )

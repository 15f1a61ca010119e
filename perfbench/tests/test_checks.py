"""The output checks: what counts as a wrong answer."""

from __future__ import annotations

import numpy as np

from repro.core.result import SampleOutput
from workloads import Verdict

C = np.array([[0, 2], [1, 0]])


def test_a_sample_in_the_support_with_its_exact_value_passes():
    verdict = Verdict()
    verdict.sample(0, "l0_sample#0", SampleOutput(row=0, col=1, value=2.0), C)
    verdict.sample(1, "l1_sample#1", SampleOutput(row=1, col=0, value=None), C)
    assert not verdict.failures and verdict.samples == 2 and verdict.empty_samples == 0


def test_an_empty_sample_is_counted_not_failed():
    verdict = Verdict()
    verdict.sample(0, "l0_sample#0", SampleOutput(row=None, col=None), C)
    assert not verdict.failures and verdict.empty_samples == 1


def test_a_sample_outside_the_support_or_with_a_wrong_value_fails_its_operation():
    verdict = Verdict()
    verdict.sample(3, "l0_sample#3", SampleOutput(row=0, col=0, value=1.0), C)
    verdict.sample(4, "l0_sample#4", SampleOutput(row=0, col=1, value=1.0), C)
    assert verdict.failed_ops == {3, 4}


def test_relative_errors_keep_the_worst_and_reject_bad_estimates():
    verdict = Verdict()
    verdict.rel_error(0, "lp_norm(p=2)", 90.0, 100.0)
    verdict.rel_error(1, "lp_norm(p=2)", 120.0, 100.0)
    assert verdict.rel_errors["lp_norm(p=2)"] == 0.2
    verdict.rel_error(2, "linf", float("nan"), 3.0)
    assert verdict.failed_ops == {2}

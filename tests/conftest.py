"""Shared test helpers."""

import warnings

import pytest
from scipy import stats as scipy_stats

from kingman.stats import ks_test_two_sample


@pytest.fixture
def assert_same_law():
    """Assert two samples pass two-sample KS and Anderson-Darling at p > floor."""

    def check(a, b, floor=1e-3):
        ks = ks_test_two_sample(a, b).p_value
        with warnings.catch_warnings():
            # scipy clips the AD p-value to [0.001, 0.25] and warns when it does
            warnings.simplefilter("ignore")
            ad = scipy_stats.anderson_ksamp([a, b], variant="midrank").pvalue
        assert ks > floor and ad > floor, f"KS p={ks:.3g}, AD p={ad:.3g}"

    return check

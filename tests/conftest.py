"""Shared test helpers."""

import importlib.util
import warnings
from pathlib import Path

import pytest
from scipy import stats as scipy_stats

from kingman.stats import ks_test_two_sample

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="session")
def tracer():
    """The benchmark tracer, perfbench/tracer.py, loaded as a module to read."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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

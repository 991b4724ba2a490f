import cmath
import sys

import pytest

from grpn.group import GroupElement, GroupParams


def to_matrix(w: GroupElement):
    """Numerical monomial matrix of an element; independent oracle for the
    group arithmetic (floating point, used only in tests)."""
    import numpy as np

    n, r = w.params.n, w.params.r
    zeta = cmath.exp(2j * cmath.pi / r)
    m = np.zeros((n, n), dtype=complex)
    for col in range(n):
        m[w.perm[col] - 1, col] = zeta ** w.colors[col]
    return m


def pytest_runtest_logreport(report):
    # one PASS/FAIL line per acceptance criterion (visible with -s)
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        print(f"ACCEPTANCE {name}: {'PASS' if report.passed else 'FAIL'}")


@pytest.fixture
def running_example():
    """The G(4,1,8) element used throughout the worked examples."""
    params = GroupParams(4, 1, 8)
    return GroupElement(params, (5, 1, 3, 6, 7, 4, 2, 8), (1, 0, 2, 0, 2, 1, 0, 0))


@pytest.fixture
def int_digit_limit():
    """Python's default integer-string limit, whatever the interpreter or
    ``PYTHONINTMAXSTRDIGITS`` set; interpreters without one are skipped."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no integer-string limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)

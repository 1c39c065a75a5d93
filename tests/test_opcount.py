"""Counting scalar behaviour and measured-vs-predicted operation counts."""

import pathlib

import numpy as np
import pytest

from bestsubset import ObservationMatrix, OpTally, measure_counts, predicted_counts
from bestsubset import hat, opcount
from bestsubset.opcount import (
    COUNT_METHODS,
    CountingTally,
    count_table,
    counted,
    format_count_table,
)


def test_counting_scalar_tallies_each_operation():
    t = CountingTally()
    a = counted(3.0, t)
    b = counted(4.0, t)
    c = (a + b) * a - 2.0
    _ = c / b
    assert (t.adds, t.muls, t.divs) == (2, 1, 1)
    assert float(c) == pytest.approx(19.0)


def test_counting_scalar_reflected_ops_count_too():
    t = CountingTally()
    a = counted(2.0, t)
    _ = 1.0 - a * a  # mul then reflected sub
    _ = 1.0 / a
    assert (t.adds, t.muls, t.divs) == (1, 1, 1)


def test_counting_scalar_free_operations():
    t = CountingTally()
    a = counted(-2.0, t)
    _ = abs(a)
    _ = -a
    _ = a < 1.0
    _ = a >= -5.0
    assert (t.adds, t.muls, t.divs) == (0, 0, 0)


def test_predicted_spot_values():
    """Frozen closed-form values for small k."""
    assert predicted_counts("alg2", 2) == OpTally(4, 5, 1)
    assert predicted_counts("alg2", 3) == OpTally(10, 13, 2)
    assert predicted_counts("alg1", 1) == OpTally(1, 2, 1)
    assert predicted_counts("alg1", 2) == OpTally(4, 7, 2)
    assert predicted_counts("hat-single", 1, d=10) == OpTally(43, 36, 2)


def test_predicted_polynomials_closed_form():
    """The k-polynomials, written out, for k = 1..8."""
    for k in range(1, 9):
        a2 = predicted_counts("alg2", k)
        assert a2.adds * 6 == k**3 + 3 * k**2 + 2 * k
        assert a2.muls * 6 == k**3 + 6 * k**2 - k
        assert a2.divs == k - 1
        a1 = predicted_counts("alg1", k)
        assert a1.adds * 6 == k**3 + 3 * k**2 + 2 * k
        assert a1.muls * 6 == k**3 + 6 * k**2 + 5 * k
        assert a1.divs == k


def test_predicted_m1_multi_reduces_to_single():
    """The m-responder forms at m=1 collapse onto the single-responder ones."""
    for k in range(1, 9):
        assert predicted_counts("alg2", k, m=1) == predicted_counts("alg2", k)
        for d in (15, 40):
            assert predicted_counts("hat-a", k, d=d, m=1) == \
                predicted_counts("hat-single", k, d=d)


def test_measured_matches_predicted_uuc_kernels():
    """Exact agreement for both determinant kernels, k=1..8, m=1..5."""
    for k in range(1, 9):
        for m in range(1, 6):
            for method in ("alg1", "alg2"):
                assert measure_counts(method, k, m=m) == \
                    predicted_counts(method, k, m=m), (method, k, m)


def test_measured_matches_predicted_baselines():
    """Exact agreement for the least-squares schedules."""
    for k in (1, 2, 3, 5, 8):
        for d in (12, 37):
            assert measure_counts("hat-single", k, d=d) == \
                predicted_counts("hat-single", k, d=d)
            for m in (1, 2, 4):
                for method in ("hat-a", "hat-b"):
                    assert measure_counts(method, k, d=d, m=m) == \
                        predicted_counts(method, k, d=d, m=m), (method, k, d, m)


def test_measured_counts_data_independent():
    """Same tally regardless of the random data behind the run."""
    a = measure_counts("alg2", 4, m=2, seed=1)
    b = measure_counts("alg2", 4, m=2, seed=999)
    assert a == b
    a = measure_counts("hat-b", 3, d=20, m=2, seed=5)
    b = measure_counts("hat-b", 3, d=20, m=2, seed=1234)
    assert a == b


def test_baseline_counts_linear_in_d():
    """At fixed k the baseline grows linearly in d with slopes k+3 and k+2."""
    k = 3
    ds = [100, 200, 400, 800]
    adds = [measure_counts("hat-single", k, d=d).adds for d in ds]
    muls = [measure_counts("hat-single", k, d=d).muls for d in ds]
    slope_a = np.polyfit(ds, adds, 1)[0]
    slope_m = np.polyfit(ds, muls, 1)[0]
    assert slope_a == pytest.approx(k + 3, rel=1e-12)
    assert slope_m == pytest.approx(k + 2, rel=1e-12)


def test_divisions_constant_in_d_and_m():
    for d in (15, 60):
        for m in (1, 3):
            assert measure_counts("hat-a", 4, d=d, m=m).divs == 5
            assert measure_counts("hat-b", 4, d=d, m=m).divs == 5
    for m in (1, 4):
        assert measure_counts("alg2", 5, m=m).divs == 4


def test_parameter_validation():
    with pytest.raises(ValueError):
        predicted_counts("alg3", 2)
    with pytest.raises(ValueError):
        predicted_counts("hat-a", 2)  # missing d
    with pytest.raises(ValueError):
        predicted_counts("hat-single", 2, d=20, m=3)
    with pytest.raises(ValueError):
        measure_counts("alg2", 5, d=4)  # d too small for k


def test_count_table_and_rendering():
    rows = count_table(ks=(1, 2), d=12, ms=(1, 2))
    # every method at both m and both k, except hat-single, which has m=1 only
    assert [(r["method"], r["m"], r["k"]) for r in rows] == [
        (method, m, k) for method in COUNT_METHODS for m in (1, 2) for k in (1, 2)
        if method != "hat-single" or m == 1]
    assert all(r["exact_match"] for r in rows)
    csv_text = format_count_table(rows, "csv")
    assert csv_text.splitlines()[0].startswith("method,k,d,m,adds_measured")
    table = format_count_table(rows, "text")
    assert all(method in table for method in COUNT_METHODS)


def test_counts_run_the_block_kernel_not_the_scalar_fits(monkeypatch):
    """The hat-* rows count ``hat._residual_block``, the kernel the scan
    runs: with the scalar fits gone, the golden table is unchanged."""
    def unreachable(*args):
        raise AssertionError("the op counter ran a scalar least-squares fit")

    monkeypatch.setattr(hat, "scan_fit_a", unreachable)
    monkeypatch.setattr(hat, "scan_fit_b", unreachable)
    table = format_count_table(count_table(ks=range(1, 9), d=30, ms=range(1, 6)), "csv")
    assert table == (pathlib.Path(__file__).parent / "golden" /
                     "count_ops_k8_m5_d30.csv").read_text()


@pytest.mark.parametrize("method", COUNT_METHODS)
def test_a_collinear_draw_is_redrawn(monkeypatch, method):
    """A first draw whose column 1 repeats column 0 is singular for every
    kernel. It is redrawn before any counting scalar divides by its zero
    pivot, and the tally is an unpatched call's."""
    expected = measure_counts(method, 3, d=20)
    draw, draws = opcount.synthetic_observations, []

    def collinear_first(d, p, seed):
        x = draw(d, p, seed=seed).values.copy()
        if not draws:
            x[:, 1] = x[:, 0]
        draws.append(seed)
        return ObservationMatrix(x)

    monkeypatch.setattr(opcount, "synthetic_observations", collinear_first)
    assert measure_counts(method, 3, d=20) == expected
    assert len(draws) == 4  # the collinear draw, then three counted ones

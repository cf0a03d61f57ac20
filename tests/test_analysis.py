"""Group splitting, cross-run aggregation, and the CSV contract."""

import csv
import io

import numpy as np
import pytest

from halpha_sim.analysis import aggregate, export_csv, split_groups
from halpha_sim.engine import RunResult
from halpha_sim.errors import DataError


def make_run(run_index, initial_h, h_alpha_by_period):
    """A RunResult whose row 0 holds ``initial_h`` and whose row t holds period t's h-alpha."""
    initial_h = np.asarray(initial_h, dtype=np.int32)
    h_alpha = np.asarray(h_alpha_by_period, dtype=np.int32).reshape(-1, initial_h.size)
    periods, n = h_alpha.shape
    return RunResult(
        run_index=run_index,
        h=np.vstack([initial_h, h_alpha + 3]),
        h_alpha=np.vstack([np.zeros(n, dtype=np.int32), h_alpha]),
        paper_counts=np.full((periods + 1, n), 99, dtype=np.int32),
        teams=np.empty((periods, 0, 3), dtype=np.int32),
    )


# Initial h of five agents: low {0, 1}, high {3, 4}, agent 2 at the median (5)
# in neither group, so its h-alpha (99) never reaches a mean.
INITIAL_H = [1, 2, 5, 9, 9]


def at_median(low, high, n):
    """Agents in neither group: those exactly at the median."""
    return np.setdiff1d(np.arange(n), np.concatenate([low, high]))


# --- split_groups ------------------------------------------------------------


def test_split_one_to_thirteen():
    low, high = split_groups(np.arange(1, 14))
    assert low.size == 6
    assert high.size == 6
    assert at_median(low, high, 13).tolist() == [6]


def test_split_uses_lower_median_for_even_counts():
    low, high = split_groups([1, 2, 9, 10])
    assert low.tolist() == [0]
    assert high.tolist() == [2, 3]
    assert at_median(low, high, 4).tolist() == [1]


def test_split_all_equal_warns_and_empties():
    with pytest.warns(UserWarning):
        low, high = split_groups([4, 4, 4, 4])
    assert low.size == 0
    assert high.size == 0
    assert at_median(low, high, 4).size == 4


@pytest.mark.parametrize(
    "call",
    [lambda: split_groups([4, 4, 4, 4]), lambda: aggregate([make_run(0, [4, 4, 4], [[1, 2, 3]])])],
    ids=["split_groups", "aggregate"],
)
def test_same_initial_h_warning_points_at_the_caller(call):
    # the line in this file that called into the package, not a line inside it
    with pytest.warns(UserWarning, match="same initial h") as record:
        call()
    assert [w.filename for w in record] == [__file__]


def test_split_requires_agents():
    with pytest.raises(ValueError):
        split_groups([])


# --- aggregate ---------------------------------------------------------------


def test_aggregate_averages_per_run_means():
    run_a = make_run(0, INITIAL_H, [[2, 2, 99, 5, 5], [4, 4, 99, 7, 7]])
    run_b = make_run(1, INITIAL_H, [[4, 4, 99, 6, 6], [6, 6, 99, 9, 9]])
    result = aggregate([run_a, run_b])
    assert result.mean_h_alpha_low.tolist() == [3.0, 5.0]
    assert result.mean_h_alpha_high.tolist() == [5.5, 8.0]
    assert result.difference.tolist() == [2.5, 3.0]


def test_aggregate_single_run_is_identity():
    run = make_run(0, INITIAL_H, [[2, 2, 99, 5, 7], [4, 4, 99, 7, 9]])
    result = aggregate([run])
    assert result.mean_h_alpha_low.tolist() == [2.0, 4.0]
    assert result.mean_h_alpha_high.tolist() == [6.0, 8.0]


def test_aggregate_difference_is_high_minus_low():
    rng = np.random.default_rng(3)
    runs = [
        make_run(i, rng.integers(0, 12, size=10), rng.integers(0, 9, size=(4, 10)))
        for i in range(5)
    ]
    result = aggregate(runs)
    assert np.array_equal(
        result.difference, result.mean_h_alpha_high - result.mean_h_alpha_low
    )


def test_aggregate_invariant_under_run_order():
    rng = np.random.default_rng(9)
    runs = [
        make_run(i, rng.integers(0, 12, size=8), rng.integers(0, 9, size=(3, 8)))
        for i in range(4)
    ]
    forward = aggregate(runs)
    backward = aggregate(list(reversed(runs)))
    assert np.array_equal(forward.mean_h_alpha_low, backward.mean_h_alpha_low)
    assert np.array_equal(forward.mean_h_alpha_high, backward.mean_h_alpha_high)
    assert np.array_equal(forward.difference, backward.difference)


def test_aggregate_shift_equivariance():
    rng = np.random.default_rng(21)
    base_values = [rng.integers(0, 9, size=(3, 8)) for _ in range(4)]
    initial = rng.integers(0, 12, size=8)
    runs = [make_run(i, initial, v) for i, v in enumerate(base_values)]
    shifted = [make_run(i, initial, v + 5) for i, v in enumerate(base_values)]
    a, b = aggregate(runs), aggregate(shifted)
    assert np.allclose(b.mean_h_alpha_low, a.mean_h_alpha_low + 5)
    assert np.allclose(b.mean_h_alpha_high, a.mean_h_alpha_high + 5)
    assert np.allclose(b.difference, a.difference)


def test_aggregate_rejects_mismatched_period_counts():
    run_a = make_run(0, [1, 9], [[1, 5], [2, 6]])
    run_b = make_run(1, [1, 9], [[1, 5]])
    with pytest.raises(DataError):
        aggregate([run_a, run_b])


def test_aggregate_rejects_empty_input():
    with pytest.raises(DataError):
        aggregate([])


# --- export_csv --------------------------------------------------------------


def parse_csv(blob: bytes):
    text = blob.decode("utf-8")
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


def synthetic_result(periods=20, runs=2, seed=0):
    rng = np.random.default_rng(seed)
    values = [rng.integers(0, 9, size=(periods, 10)) for _ in range(runs)]
    initial = rng.integers(0, 12, size=10)
    return aggregate([make_run(i, initial, v) for i, v in enumerate(values)])


def test_export_row_count_and_endings():
    blob = export_csv(synthetic_result(periods=20))
    assert b"\r" not in blob
    lines = blob.decode("utf-8").splitlines()
    assert lines[0] == "period,group,mean_h_alpha"
    assert len(lines) == 1 + 20 * 3


def test_export_orders_rows_and_formats_six_decimals():
    result = aggregate([make_run(0, INITIAL_H, [[2, 2, 99, 5, 5], [4, 4, 99, 7, 7]])])
    lines = export_csv(result).decode("utf-8").splitlines()
    assert lines[1] == "1,low,2.000000"
    assert lines[2] == "1,high,5.000000"
    assert lines[3] == "1,diff,3.000000"
    assert lines[4] == "2,low,4.000000"


def test_export_round_trips_at_six_decimals():
    result = synthetic_result()
    rows = parse_csv(export_csv(result))
    for t, period in enumerate(result.periods):
        period_rows = {r["group"]: r for r in rows if r["period"] == str(period)}
        assert float(period_rows["low"]["mean_h_alpha"]) == pytest.approx(
            result.mean_h_alpha_low[t], abs=5e-7
        )
        assert float(period_rows["high"]["mean_h_alpha"]) == pytest.approx(
            result.mean_h_alpha_high[t], abs=5e-7
        )
        assert float(period_rows["diff"]["mean_h_alpha"]) == pytest.approx(
            result.difference[t], abs=5e-7
        )


def test_export_empty_group_leaves_value_blank():
    # median 5: nobody below it, agents 3 and 4 above
    run = make_run(0, [5, 5, 5, 9, 9], [[99, 99, 99, 1, 2]])
    result = aggregate([run])
    lines = export_csv(result).decode("utf-8").splitlines()
    assert lines[1] == "1,low,"
    assert lines[2] == "1,high,1.500000"
    assert lines[3] == "1,diff,"


def test_export_per_run_adds_run_column():
    result = synthetic_result(periods=4, runs=3)
    blob = export_csv(result, per_run=True)
    lines = blob.decode("utf-8").splitlines()
    assert lines[0] == "run,period,group,mean_h_alpha"
    assert len(lines) == 1 + 3 * 4 * 3
    rows = parse_csv(blob)
    for r in range(3):
        for t in range(4):
            low = [
                x for x in rows
                if x["run"] == str(r) and x["period"] == str(t + 1) and x["group"] == "low"
            ]
            assert len(low) == 1
            assert float(low[0]["mean_h_alpha"]) == pytest.approx(
                result.per_run_low[r, t], abs=5e-7
            )

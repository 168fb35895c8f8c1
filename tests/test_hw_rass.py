"""Tests for RASS scheduling, including the paper's Fig. 15 example."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.scheduler.rass import (
    FIG15_BUFFER_CAPACITY,
    FIG15_ID_BUFFER_REQUIREMENTS,
    FIG15_REQUIREMENTS,
    build_id_buffer,
    naive_schedule,
    rass_schedule,
    schedule_is_valid,
)


def test_paper_example_naive_24_vectors():
    report = naive_schedule(FIG15_REQUIREMENTS, FIG15_BUFFER_CAPACITY)
    assert report.vector_loads == 24


def test_paper_example_rass_16_vectors():
    report = rass_schedule(FIG15_REQUIREMENTS, FIG15_BUFFER_CAPACITY)
    assert report.vector_loads == 16


def test_paper_example_33pct_reduction():
    naive = naive_schedule(FIG15_REQUIREMENTS, FIG15_BUFFER_CAPACITY)
    rass = rass_schedule(FIG15_REQUIREMENTS, FIG15_BUFFER_CAPACITY)
    assert 1 - rass.vector_loads / naive.vector_loads == pytest.approx(1 / 3)


def test_id_buffer_matches_figure():
    """Fig. 15's scheduler panel: {5,6}->1000, {0,1}->0100, {2,3}->1110,
    {4,7}->1011."""
    table = build_id_buffer(FIG15_ID_BUFFER_REQUIREMENTS)
    assert table["1000"] == [5, 6]
    assert table["0100"] == [0, 1]
    assert table["1110"] == [2, 3]
    assert table["1011"] == [4, 7]


def test_rass_schedule_valid_on_example():
    report = rass_schedule(FIG15_REQUIREMENTS, FIG15_BUFFER_CAPACITY)
    assert schedule_is_valid(FIG15_REQUIREMENTS, report)


def test_rass_loads_each_pair_once():
    report = rass_schedule(FIG15_REQUIREMENTS, FIG15_BUFFER_CAPACITY)
    seen = [kv for phase in report.phases for kv in phase]
    assert len(seen) == len(set(seen))


def test_phases_respect_capacity():
    report = rass_schedule(FIG15_REQUIREMENTS, 3)
    assert all(len(phase) <= 3 for phase in report.phases)


def test_naive_retain_buffer_variant_beats_double_buffered():
    flushing = naive_schedule(FIG15_REQUIREMENTS, FIG15_BUFFER_CAPACITY)
    retaining = naive_schedule(
        FIG15_REQUIREMENTS, FIG15_BUFFER_CAPACITY, retain_buffer=True
    )
    assert retaining.vector_loads <= flushing.vector_loads


def test_rass_never_worse_than_unique_set():
    reqs = [{0, 1, 2}, {1, 2, 3}, {2, 3, 4}]
    report = rass_schedule(reqs, capacity=4)
    assert report.kv_pair_loads == 5  # exactly the unique pairs


def test_empty_requirement_rejected():
    with pytest.raises(ValueError):
        rass_schedule([set()], 4)
    with pytest.raises(ValueError):
        naive_schedule([], 4)


def test_capacity_validated():
    with pytest.raises(ValueError):
        rass_schedule([{1}], 0)


@given(
    st.lists(
        st.sets(st.integers(0, 15), min_size=1, max_size=8),
        min_size=1,
        max_size=8,
    ),
    st.integers(2, 8),
)
@settings(max_examples=80, deadline=None)
def test_rass_valid_and_no_worse_than_naive(reqs, capacity):
    """For any requirement pattern: RASS covers everything and never loads
    more vectors than the double-buffered naive execution."""
    naive = naive_schedule(reqs, capacity)
    rass = rass_schedule(reqs, capacity)
    assert schedule_is_valid(reqs, rass)
    assert schedule_is_valid(reqs, naive)
    assert rass.vector_loads <= naive.vector_loads


@given(
    st.lists(
        st.sets(st.integers(0, 20), min_size=1, max_size=10),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=60, deadline=None)
def test_rass_loads_exactly_unique_pairs(reqs):
    """RASS's ideal: total pair loads equal the union of requirements."""
    unique = len(set().union(*reqs))
    assert rass_schedule(reqs, capacity=64).kv_pair_loads == unique

"""Hypothesis strategies shared by the property tests."""

from __future__ import annotations

from hypothesis import strategies as st


@st.composite
def objective_rows(draw, m=None, extremes=True):
    """Small objective matrices on a coarse grid, so duplicate rows and
    ties in single objectives are common. ``m`` fixes the number of
    objectives; ``extremes`` mixes in +-1e300, which overflow any squared
    distance and so suit only the comparison-based code."""
    if m is None:
        m = draw(st.integers(2, 4))
    n = draw(st.integers(1, 30))
    cells = st.integers(0, 4) | st.sampled_from([-1e300, 1e300, 0.5] if extremes else [0.5])
    rows = draw(st.lists(st.lists(cells, min_size=m, max_size=m), min_size=n, max_size=n))
    return [[float(v) for v in row] for row in rows]

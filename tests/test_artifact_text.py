"""The run tables and SVG panels written in blocks, against the references
of `oracles`: the csv module row by row, and one f-string per point."""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spiralns import SpiralParams, render_svg, run_single
from spiralns.experiments import (
    BLOCK_ROWS,
    _header_lines,
    _write_table,
    config_from_items,
    write_run_lineage,
    write_run_telemetry,
)
from spiralns.svgplot import MAX_DOTS, MAX_VERTICES

import oracles

# Around and across the block boundaries.
LENGTHS = [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1]
SPECIAL_FLOATS = [
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
    5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, 0.1, 1 / 3, 2.0**53 + 2, -(2.0**63),
]
SPECIAL_INTS = [0, -1, 1, 2**53, 2**53 + 1, -(2**53) - 1, 2**62 + 3, 2**63 - 1, -(2**63)]
CONFIG = config_from_items({"scenario": "Custom", "evolution.g_max": "10"})


@st.composite
def columns(draw, n):
    """A table of n rows in one to six int64 and float64 columns, its cells
    drawn from a small pool, the special values and random bit patterns."""
    kinds = draw(st.lists(st.sampled_from(["i8", "f8"]), min_size=1, max_size=6))
    floats = draw(st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=8))
    ints = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dtype = np.dtype([(f"c{j}", kind) for j, kind in enumerate(kinds)])
    table = np.empty(n, dtype)
    for name, kind in zip(dtype.names, kinds):
        pool = np.array(floats + SPECIAL_FLOATS if kind == "f8" else ints + SPECIAL_INTS, kind)
        column = pool[rng.integers(len(pool), size=n)]
        fresh = rng.random(n) < 0.3  # random bits: nan payloads, subnormals
        column[fresh] = rng.integers(-(2**63), 2**63 - 1, size=fresh.sum()).view(kind)
        table[name] = column
    return table


class TestTableText:
    @pytest.mark.parametrize("n", LENGTHS)
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_matches_the_csv_module(self, tmp_path_factory, n, data):
        table = data.draw(columns(n))
        tmp = tmp_path_factory.mktemp("t")
        tel = SimpleNamespace(run_index=4, seed=11)
        _write_table(CONFIG, tel, table, tmp / "new.csv")
        header = _header_lines(CONFIG, [("run_index", "4"), ("seed", "11")])
        oracles.write_table_csv(tmp / "ref.csv", header, table)
        assert (tmp / "new.csv").read_bytes() == (tmp / "ref.csv").read_bytes()

    @pytest.mark.parametrize("archive", ["none", "grid"])
    def test_run_files_match_the_csv_module(self, tmp_path, archive):
        # A lineage of 1,200 rows: more than one block.
        config = config_from_items({"scenario": "Custom", "evolution.g_max": "40",
                                    "archive.kind": archive})
        tel = run_single(config, 0)
        header = _header_lines(config, [("run_index", "0"), ("seed", "0")])
        for write, table in ((write_run_telemetry, tel.telemetry),
                             (write_run_lineage, tel.lineage)):
            write(config, tel, tmp_path / "new.csv")
            oracles.write_table_csv(tmp_path / "ref.csv", header, table)
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


PANEL_SIZES = [0, 1, 2, MAX_DOTS, MAX_DOTS + 1, 2 * MAX_DOTS + 3]


class TestSvgText:
    @pytest.mark.parametrize("n", PANEL_SIZES)
    @settings(max_examples=5, deadline=None)
    @given(
        a=st.floats(1e-3, 10.0),
        alpha=st.floats(0.5, 40.0),
        seed=st.integers(0, 2**32 - 1),
        start=st.floats(0.0, 1.0),
        header=st.lists(st.tuples(st.text(max_size=8), st.text(max_size=8)), max_size=3),
    )
    def test_matches_the_per_point_renderer(self, n, a, alpha, seed, start, header):
        params = SpiralParams(a, alpha)
        rng = np.random.default_rng(seed)
        ts = rng.uniform(0.0, params.t_max, n)
        ts[: min(n, 2)] = [0.0, params.t_max][: min(n, 2)]  # both ends of the curve
        init_t0 = start * params.t_max
        expected = oracles.render_svg(ts, params, init_t0, header)
        assert render_svg(ts, params, init_t0, header) == expected
        dots = expected.count('r="1.6"')
        assert dots == n if n <= MAX_DOTS else MAX_DOTS // 2 < dots <= MAX_DOTS

    @pytest.mark.parametrize("alpha, vertices", [(30.0, 4713), (1e12, MAX_VERTICES)])
    def test_polyline_vertices_are_capped(self, alpha, vertices):
        # Uncapped, alpha 1e12 would take 1.6e14 vertices: a MemoryError.
        svg = render_svg([], SpiralParams(0.01, alpha), 0.0)
        points = re.search(r'<polyline points="([^"]*)"', svg).group(1)
        assert len(points.split(" ")) == vertices

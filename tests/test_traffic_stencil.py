"""Unit tests for stencil workloads and rank mappings."""

import numpy as np
import pytest

from repro.errors import MappingError, TrafficError
from repro.traffic import (
    apply_mapping,
    grid_dims,
    linear_mapping,
    random_mapping,
    stencil_messages,
)


class TestGridDims:
    def test_paper_2d(self):
        assert sorted(grid_dims(3600, 2)) == [60, 60]

    def test_paper_3d(self):
        assert sorted(grid_dims(3600, 3)) == [15, 15, 16]

    def test_small(self):
        assert sorted(grid_dims(12, 2)) == [3, 4]
        assert sorted(grid_dims(24, 3)) == [2, 3, 4]

    def test_prime(self):
        assert sorted(grid_dims(7, 2)) == [1, 7]

    def test_one_dim(self):
        assert grid_dims(9, 1) == (9,)


class TestStencilMessages:
    @pytest.mark.parametrize(
        "name,neighbours", [("2dnn", 4), ("2dnndiag", 8), ("3dnn", 6), ("3dnndiag", 26)]
    )
    def test_neighbour_counts_on_large_grid(self, name, neighbours):
        # 8x8 (or 4x4x4) grids: all wrap-around neighbours distinct.
        n = 64
        msgs = stencil_messages(name, n, total_bytes=1.0)
        per_src = {}
        for s, d, b in msgs:
            per_src.setdefault(s, []).append((d, b))
        assert set(per_src) == set(range(n))
        for s, out in per_src.items():
            assert len(out) == neighbours

    def test_bytes_sum_to_total(self):
        for name in ("2dnn", "2dnndiag", "3dnn", "3dnndiag"):
            msgs = stencil_messages(name, 64, total_bytes=15e6)
            per_src = {}
            for s, d, b in msgs:
                per_src[s] = per_src.get(s, 0.0) + b
            for s, total in per_src.items():
                assert total == pytest.approx(15e6)

    def test_2dnn_split_matches_paper(self):
        # Paper: 2DNN sends 15/4 = 3.75 MB per neighbour.
        msgs = stencil_messages("2dnn", 3600, total_bytes=15e6)
        assert all(b == pytest.approx(15e6 / 4) for _, _, b in msgs)

    def test_symmetry(self):
        # Periodic stencil exchange is symmetric: (s, d) implies (d, s).
        msgs = stencil_messages("3dnn", 27, total_bytes=1.0)
        pairs = {(s, d) for s, d, _ in msgs}
        assert all((d, s) in pairs for s, d in pairs)

    def test_no_self_messages(self):
        for n in (4, 9, 16):
            msgs = stencil_messages("2dnn", n, total_bytes=1.0)
            assert all(s != d for s, d, _ in msgs)

    def test_tiny_grid_merges_duplicates_but_keeps_totals(self):
        # On a 2x2 grid, +1 and -1 wrap to the same neighbour.
        msgs = stencil_messages("2dnn", 4, total_bytes=1.0)
        per_src = {}
        for s, d, b in msgs:
            per_src[s] = per_src.get(s, 0.0) + b
        assert all(v == pytest.approx(1.0) for v in per_src.values())

    def test_explicit_dims(self):
        msgs = stencil_messages("2dnn", 12, total_bytes=1.0, dims=(3, 4))
        assert len({s for s, _, _ in msgs}) == 12

    def test_explicit_dims_validation(self):
        with pytest.raises(TrafficError, match="multiply"):
            stencil_messages("2dnn", 12, dims=(3, 5))
        with pytest.raises(TrafficError, match="dims"):
            stencil_messages("2dnn", 12, dims=(12,))

    def test_unknown_stencil(self):
        with pytest.raises(TrafficError, match="unknown stencil"):
            stencil_messages("5dnn", 32)

    @pytest.mark.parametrize(
        "total_bytes", [0, float("nan"), float("inf"), float("-inf")]
    )
    def test_bad_bytes(self, total_bytes):
        with pytest.raises(TrafficError, match=str(total_bytes)):
            stencil_messages("2dnn", 16, total_bytes=total_bytes)


class TestMappings:
    def test_linear(self):
        m = linear_mapping(10, 20)
        assert m.tolist() == list(range(10))

    def test_linear_overflow(self):
        with pytest.raises(MappingError):
            linear_mapping(21, 20)

    def test_random_is_injective(self):
        m = random_mapping(15, 20, seed=3)
        assert len(set(m.tolist())) == 15
        assert all(0 <= h < 20 for h in m)

    def test_random_reproducible(self):
        assert random_mapping(15, 20, seed=3).tolist() == random_mapping(15, 20, seed=3).tolist()

    def test_apply_mapping(self):
        msgs = [(0, 1, 5.0), (1, 2, 7.0)]
        m = np.array([10, 11, 12])
        assert apply_mapping(msgs, m) == [(10, 11, 5.0), (11, 12, 7.0)]

    def test_apply_mapping_range_check(self):
        with pytest.raises(MappingError):
            apply_mapping([(0, 3, 1.0)], np.array([4, 5, 6]))

"""Unit tests for FlowSpec validation."""

import numpy as np
import pytest

from repro.appsim import FlowSpec
from repro.errors import SimulationError


class TestFlowSpec:
    def test_basic_construction(self):
        f = FlowSpec(0, 1, 100.0, np.array([3, 4]), message_id=7)
        assert f.nbytes == 100.0
        assert f.links.dtype == np.int64
        assert f.message_id == 7

    def test_links_coerced_from_list(self):
        f = FlowSpec(0, 1, 1.0, [1, 2, 3], message_id=0)
        assert isinstance(f.links, np.ndarray)
        assert f.links.tolist() == [1, 2, 3]

    def test_zero_bytes_rejected(self):
        with pytest.raises(SimulationError):
            FlowSpec(0, 1, 0.0, [1], message_id=0)

    def test_negative_bytes_rejected(self):
        with pytest.raises(SimulationError):
            FlowSpec(0, 1, -5.0, [1], message_id=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), np.float64("nan")])
    def test_nonfinite_bytes_rejected(self, bad):
        with pytest.raises(SimulationError, match=f"has {bad} bytes"):
            FlowSpec(0, 1, bad, [1], message_id=0)

    def test_path_default_empty(self):
        f = FlowSpec(0, 1, 1.0, [1], message_id=0)
        assert f.path == ()

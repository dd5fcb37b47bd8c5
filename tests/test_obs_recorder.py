"""The shared capture-layer lifecycle and the layer registry.

Every capture layer binds its module functions to one
:class:`repro.obs.recorder.Slot`, and :mod:`repro.obs.layers` drives them
all at once.  These tests pin what the per-layer suites do not: damaged
artifacts fail with a clear error in every layer, and the registry's
configs, captures and merges cover exactly the layers that are on.
"""

import re

import pytest

from repro.errors import ConfigurationError
from repro.obs import layers

pytestmark = pytest.mark.obs

ARTIFACT_LAYERS = ("trace", "timeseries", "linkstate", "flowstats")


@pytest.fixture(autouse=True)
def _layers_disabled():
    layers.disable_all()
    yield
    layers.disable_all()


@pytest.mark.parametrize("name", ARTIFACT_LAYERS)
def test_unreadable_artifact_is_a_configuration_error(name, tmp_path):
    layer = layers.LAYERS[name]
    save, load = getattr(layer, f"save_{name}"), getattr(layer, f"load_{name}")
    with layer.capture() as rec:
        path = save(tmp_path / f"run.{name}.npz", rec.snapshot())
    assert load(path)["format"] == rec.snapshot()["format"]

    data = path.read_bytes()
    for damaged in (data[: len(data) // 2], b"", b"not an archive"):
        path.write_bytes(damaged)
        with pytest.raises(ConfigurationError, match=re.escape(str(path))):
            load(path)


def test_registry_configs_capture_and_merge():
    from repro.obs import flowstats, linkstate, metrics

    assert layers.active_configs() == {}
    metrics.enable()
    home = linkstate.enable(window=40)
    flowstats.enable()
    cfgs = layers.active_configs()
    assert cfgs == {"metrics": {}, "linkstate": {"window": 40}, "flowstats": {}}

    with layers.capture(cfgs) as recs:
        assert list(recs) == list(cfgs)
        assert linkstate.active() is recs["linkstate"] is not home
        assert recs["linkstate"].window == 40
        recs["linkstate"].begin_run(n_links=2)
        metrics.counter("x").inc(3)
    assert linkstate.active() is home
    snaps = {name: rec.snapshot() for name, rec in recs.items()}

    layers.merge(snaps)
    layers.merge(None)  # a cell with every layer off ships no snapshots
    assert home.snapshot()["n_runs"] == 1
    assert metrics.snapshot()["counters"] == {"x": 3}

    layers.disable_all()
    assert all(not layer.enabled() for layer in layers.LAYERS.values())

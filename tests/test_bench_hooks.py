"""The end-to-end benchmark's hook contract with the program.

``benchmarks/e2e/trace.py`` times each layer by wrapping program
attributes by name (:data:`LAYER_HOOKS`): module functions such as
``repro.obs.linkstate.merge_snapshot`` and methods such as
``LinkstateRecorder.merge``.  A renamed or removed attribute makes every
traced benchmark run fail, so tier-1 checks that each hook installs and
that uninstalling puts every attribute back.
"""

import importlib
import importlib.util
from pathlib import Path

TRACE_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "trace.py"


def _bench_trace():
    # Loaded by path: ``import trace`` could pick up the standard library.
    spec = importlib.util.spec_from_file_location("e2e_trace", TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_hooks_install_and_restore():
    bench = _bench_trace()
    targets = []
    for module, cls, attr, *_ in bench.LAYER_HOOKS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        targets.append((owner, attr, getattr(owner, attr)))

    tracer = bench.Tracer("hooks")
    try:
        bench.install_layer_hooks(tracer)
        unwrapped = [
            f"{getattr(o, '__name__', o)}.{a}"
            for o, a, original in targets
            if getattr(o, a) is original
        ]
        assert unwrapped == []
    finally:
        tracer.uninstall()
    restored = [
        f"{getattr(o, '__name__', o)}.{a}"
        for o, a, original in targets
        if getattr(o, a) is not original
    ]
    assert restored == []

"""The traced benchmark pass (`perfbench/tracing.py`) looks up every span in
its SPANS list by module and attribute name. Installing and removing the
spans here makes a removed or renamed function fail the default test run
instead of the benchmark. The module is read from `perfbench/`, never
changed."""

import importlib.util
import inspect
import pathlib
import sys

import fusionkit
import fusionkit.cli  # noqa: F401  (the cli, rv, report and descriptors spans)

TRACING = (pathlib.Path(__file__).resolve().parent.parent
           / "perfbench" / "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every module-level binding of the package, and every attribute of
    its classes, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "fusionkit" and not name.startswith("fusionkit."):
            continue
        for attr, value in vars(mod).items():
            out[name, attr] = id(value)
            if inspect.isclass(value):
                for k, v in vars(value).items():
                    out[name, attr, k] = id(v)
    return out


def test_every_span_resolves_and_uninstalls():
    tracing = _load_tracing()
    before = _bindings()
    tracer = tracing.Tracer()
    patches = tracing.install_spans(tracer)
    try:
        wrapped = {(id(owner), attr) for owner, attr, _ in patches}
        assert len(wrapped) >= len(tracing.SPANS)
        fusionkit.Subgroup.generator_ids(fusionkit.cyclic_group(4).full())
    finally:
        tracing.uninstall(patches)
    assert tracer.stats["groups.Subgroup.generator_ids"][0] == 1
    assert _bindings() == before

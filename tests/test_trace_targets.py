"""The benchmark's trace targets still name attributes of the program.

perfbench/tracing.py wraps each call site in TARGETS by module and
attribute name, so renaming or moving one breaks a traced benchmark run.
The module is imported read-only (no bytecode written next to it).
"""

import importlib
import pathlib
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _owner_and_attr(module_name, path):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _function(raw):
    return raw.__func__ if isinstance(raw, classmethod) else raw


def test_every_trace_target_is_wrapped_and_restored(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    tracing = importlib.import_module("tracing")

    sites = [_owner_and_attr(module, path) for _, module, path in tracing.TARGETS]
    originals = [vars(owner)[attr] for owner, attr in sites]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (owner, attr), raw, target in zip(sites, originals, tracing.TARGETS):
            wrapped = _function(vars(owner)[attr])
            assert wrapped is not _function(raw), target
            assert wrapped.__wrapped__ is _function(raw), target
    finally:
        tracer.uninstall()
    for (owner, attr), raw, target in zip(sites, originals, tracing.TARGETS):
        assert vars(owner)[attr] is raw, target

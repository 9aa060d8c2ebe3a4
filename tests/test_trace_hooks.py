"""Every layer hook of the benchmark's tracer still finds its target, so a
refactor that moves a traced function fails here instead of silently
dropping its per-layer metrics."""

import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    """The tracer module, executed from its source without writing a
    bytecode cache next to it."""
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    source = TRACING.read_text(encoding="utf-8")
    exec(compile(source, str(TRACING), "exec"), module.__dict__)
    return module


def test_every_hook_target_resolves():
    tracing = load_tracing()
    assert tracing.HOOKS
    missing = [
        (module, path)
        for module, path, _, _ in tracing.HOOKS
        if tracing._resolve(module, path) is None
    ]
    assert missing == []

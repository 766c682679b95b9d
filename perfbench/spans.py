"""In-memory span tracer that wraps layer entry points from outside.

The benchmark never edits ``src/``.  Instead, for a traced run it
replaces each layer's public function (or method) with a timing wrapper
for the duration of a ``with tracer.installed(LAYERS):`` block, then
restores the originals.  A function imported by name into other modules
(``from .preprocess import build_problem``), including the benchmark's
own workload modules, is replaced there too, so every call site sees
the wrapper.

Each span records its name, start, end and the span that was open when
it began (its parent).  Spans are kept in memory and summarised once the
traced section ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence


_HERE = Path(__file__).resolve().parent


def _traced_module(name: str, mod: Any) -> bool:
    """The program's modules and the benchmark's own workload modules."""
    if name == "repro" or name.startswith("repro."):
        return True
    path = getattr(mod, "__file__", None)
    return path is not None and Path(path).resolve().parent == _HERE


def _replace_everywhere(old: Any, new: Any) -> None:
    """Rebind every traced module attribute that is ``old`` to ``new``."""
    for name, mod in list(sys.modules.items()):
        if _traced_module(name, mod):
            for key, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, key, new)


@dataclass
class Span:
    """One timed call; ``parent`` is the index of the enclosing span."""

    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    args: tuple = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    result: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Layer:
    """A public entry point to wrap: ``module.qualname`` traced as ``name``.

    ``keep`` retains the call's arguments and return value on the span
    so counts can be read after the traced section (never inside it,
    where the extra work would land in the parent span's time).
    """

    name: str
    module: str
    qualname: str
    keep: bool = False


class Tracer:
    """Collects spans from the benchmark's own wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append(Span(name=name, start=time.perf_counter(),
                               parent=stack[-1] if stack else None))
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a block of the benchmark itself (a top-level step)."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self._open(layer.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if layer.keep:
                span = self.spans[index]
                span.args, span.kwargs, span.result = args, kwargs, result
            return result
        return traced

    @contextlib.contextmanager
    def installed(self, layers: Sequence[Layer]) -> Iterator[None]:
        """Wrap every layer's entry point for the duration of the block."""
        undo: List[Callable[[], None]] = []
        try:
            for layer in layers:
                undo.extend(self._install(layer))
            yield
        finally:
            for restore in reversed(undo):
                restore()

    def _install(self, layer: Layer) -> List[Callable[[], None]]:
        module = importlib.import_module(layer.module)
        owner_name, _, attr = layer.qualname.rpartition(".")
        if owner_name:
            # A method: patch the class attribute (classmethods keep
            # their descriptor so ``Cls.build(...)`` still binds).
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                patched: Any = classmethod(self._wrap(layer, raw.__func__))
            else:
                patched = self._wrap(layer, raw)
            setattr(owner, attr, patched)
            return [lambda: setattr(owner, attr, raw)]
        original = getattr(module, attr)
        patched = self._wrap(layer, original)
        _replace_everywhere(original, patched)
        # Restoring scans again: a module first imported inside the
        # block bound the wrapper by name and must get the original.
        return [lambda: _replace_everywhere(patched, original)]

    # -- summaries ---------------------------------------------------------

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def self_times(self) -> List[float]:
        """Duration minus the time covered by direct children, per span."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        return [s.duration - c for s, c in zip(self.spans, child_time)]

    def top_level(self) -> List[Span]:
        return [s for s in self.spans if s.parent is None]

"""Outside-in span tracing of the march's layers.

The march reaches each layer through a module or class attribute (for
example ``ddmech.solver.batch_nearest`` or ``ConstraintSystem.project_arrays``).
A :class:`Tracer` replaces those attributes with wrappers that record one
span per call, and puts the originals back on exit. Nothing inside the
program changes, and a name the program no longer has is recorded as absent.

A layer's self time is its spans' total duration minus the part covered by
their direct child spans. Calls are single-threaded and properly nested, so
children never overlap and that part is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence


@dataclass(frozen=True)
class Layer:
    """One traced layer.

    ``targets`` are ``"module:attr"`` or ``"module:Class.attr"`` strings; the
    same function often sits under several names (``assemble`` is imported by
    three modules), and every one of them is wrapped under this layer's name.
    ``outcome`` maps a call's return value to what the span records of it.
    """

    name: str
    targets: tuple[str, ...]
    outcome: Callable[[Any], Any] | None = None


@dataclass
class Span:
    sid: int
    name: str
    parent: int  # sid of the enclosing span, -1 at the top
    start: float
    end: float = 0.0
    outcome: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _resolve(target: str):
    """(owner, attribute) for a target, or (None, attribute) when absent."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, path
    *owners, attr = path.split(".")
    for name in owners:
        owner = vars(owner).get(name)
        if owner is None:
            return None, attr
    if attr not in vars(owner):
        return None, attr
    return owner, attr


class Tracer:
    """Context manager that wraps the layers' attributes while it is open."""

    def __init__(self, layers: Sequence[Layer]) -> None:
        self.layers = tuple(layers)
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Tracer":
        for layer in self.layers:
            found = False
            for target in layer.targets:
                owner, attr = _resolve(target)
                if owner is None:
                    continue
                found = True
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(layer, original))
            if not found:
                self.absent.append(layer.name)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), layer.name, stack[-1] if stack else -1, clock())
            spans.append(span)
            stack.append(span.sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if layer.outcome is not None:
                span.outcome = layer.outcome(result)
            return result

        return traced


def originals(layers: Sequence[Layer]) -> dict[str, Any]:
    """The object currently bound to every present target, by target name."""
    out = {}
    for layer in layers:
        for target in layer.targets:
            owner, attr = _resolve(target)
            if owner is not None:
                out[target] = vars(owner)[attr]
    return out


def self_times(spans: Sequence[Span]) -> dict[str, tuple[int, float]]:
    """Per layer name: (calls, total self time in seconds)."""
    covered: dict[int, float] = {}
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
    out: dict[str, tuple[int, float]] = {}
    for span in spans:
        calls, total = out.get(span.name, (0, 0.0))
        self_s = span.duration - covered.get(span.sid, 0.0)
        out[span.name] = (calls + 1, total + self_s)
    return out

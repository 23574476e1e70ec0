"""Span recording around the program's public functions, from outside it.

The program looks its collaborators up by module attribute at call time
(``odup.pipeline.train_codec``, ``odup.wire.decode_delta``, ...), so
replacing those attributes with timing wrappers records a span at every
layer boundary without editing the program. ``Tracer.install`` patches the
names in ``WRAPPED`` and ``Tracer.restore`` puts the originals back.

This is benchmark-side tracing: it sees only calls that cross a patched
name, and its own cost (two clock reads and one list append per call)
lands in the traced run's time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

# (module, attribute, span name); the span name's prefix is its layer.
WRAPPED = (
    ("odup.pipeline", "prepare_data", "sessions.prepare_data"),
    ("odup.pipeline", "train", "recommender.train"),
    ("odup.pipeline", "evaluate", "recommender.evaluate"),
    ("odup.pipeline", "train_codec", "codec.train_codec"),
    ("odup.pipeline", "harden", "codec.harden"),
    ("odup.pipeline", "reconstruct_table", "codec.reconstruct_table"),
    ("odup.pipeline", "mmd2", "adaptive.mmd2"),
    ("odup.pipeline", "choose_ratio", "adaptive.choose_ratio"),
    ("odup.pipeline", "plan_slots", "updater.plan_slots"),
    ("odup.pipeline", "retrain_update", "updater.retrain_update"),
    ("odup.pipeline", "apply_delta", "updater.apply_delta"),
    ("odup.pipeline", "DeviceSim.receive", "pipeline.receive"),
    ("odup.updater", "train_codec", "codec.train_codec"),
    ("odup.updater", "harden", "codec.harden"),
    ("odup.updater", "reconstruct_table", "codec.reconstruct_table"),
    ("odup.codec", "relaxed_loss", "codec.relaxed_loss"),
    ("odup.wire", "encode_delta", "wire.encode_delta"),
    ("odup.wire", "decode_delta", "wire.decode_delta"),
)

LAYERS = ("sessions", "recommender", "codec", "updater", "adaptive", "wire", "pipeline")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 at top level
    round_id: int
    child_s: float = 0.0  # summed duration of direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records nested spans and the arguments/results of selected calls.

    ``observers`` maps a span name to ``fn(args, kwargs, result)``, called
    after the span closes so that observation cost is not in the span.
    Spans carry ``round_id``; callers that drive rounds themselves set it
    directly, otherwise ``round_marker`` advances it.
    """

    def __init__(self, observers=None, round_marker: str | None = None):
        self.spans: list[Span] = []
        self.round_id = 0
        self.observers = dict(observers or {})
        self.round_marker = round_marker  # a top-level span with this name opens a new round
        self.paused = False  # while set, patched calls run unrecorded (benchmark-side checks)
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._open[-1] if self._open else -1
            if parent < 0 and name == self.round_marker:
                self.round_id += 1
            span = Span(name, clock(), 0.0, parent, self.round_id)
            self.spans.append(span)
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                self._open.pop()
                if parent >= 0:
                    self.spans[parent].child_s += span.duration
            observer = self.observers.get(name)
            if observer is not None:
                observer(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        import importlib

        for module_name, attr, span_name in WRAPPED:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._patched.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, span_name))

    def restore(self) -> None:
        while self._patched:
            owner, leaf, original = self._patched.pop()
            setattr(owner, leaf, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # ---- summaries -------------------------------------------------------

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        return sum(s.self_s for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def layer_self(self, layer: str) -> float:
        return sum(s.self_s for s in self.spans if s.layer == layer)

    def records(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "round": s.round_id}
            for s in self.spans
        ]

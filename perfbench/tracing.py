"""Span recorder for the traced run, and the wrappers that feed it.

The wrappers are installed from the benchmark's side around the public
functions of each assoclearn module; nothing in the program is edited.
A name bound by ``from ... import`` is wrapped where it is looked up
(``assoclearn.train.component_update``, ``assoclearn.nn.matmul``, ...),
and only there: the defining module's name (``linalg.matmul``,
``al_core.component_update``, ``al_core.infer``) is never looked up by
the program, so a wrapper on it would record nothing. Methods are
wrapped on their class. ``uninstall`` puts every original back, and the
untraced run never calls ``install``.

A span is (name, parent span, thread, start, end). Each thread appends
to its own buffer, so stage threads never contend for a lock; the
buffers are merged when the run ends. Self time is a span's duration
minus the time its child spans cover; spans on one thread nest, so the
children never overlap and the covered time is their summed duration.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
import time
from array import array
from dataclasses import dataclass

import numpy as np

from assoclearn import bp, checkpoint, data, metrics, nn, train


class _Buffer:
    __slots__ = ("name", "parent", "start", "end", "stack", "counts")

    def __init__(self):
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: dict[str, float] = {}


@dataclass
class Spans:
    """All recorded spans as flat arrays; parent is a global index or -1."""

    names: list[str]
    name: np.ndarray
    parent: np.ndarray
    thread: np.ndarray
    start: np.ndarray
    end: np.ndarray
    counts: dict[str, float]


class SpanRecorder:
    """Keeps spans in memory until ``spans()`` is called. While ``paused``
    is set the wrappers call straight through and record nothing."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.paused = False
        self._names: dict[str, int] = {}
        self._buffers: list[_Buffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _name_id(self, name: str) -> int:
        i = self._names.get(name)
        if i is None:
            with self._lock:
                i = self._names.setdefault(name, len(self._names))
        return i

    def open(self, name: str):
        buf = self._buffer()
        i = len(buf.start)
        buf.name.append(self._name_id(name))
        buf.parent.append(buf.stack[-1])
        buf.end.append(0.0)
        buf.stack.append(i)
        buf.start.append(self.clock())
        return buf, i

    def close(self, token) -> None:
        buf, i = token
        buf.end[i] = self.clock()
        buf.stack.pop()

    @contextlib.contextmanager
    def pause(self):
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def add(self, key: str, value: float) -> None:
        counts = self._buffer().counts
        counts[key] = counts.get(key, 0) + value

    def spans(self) -> Spans:
        parts = {k: [] for k in ("name", "parent", "thread", "start", "end")}
        counts: dict[str, float] = {}
        offset = 0
        for t, buf in enumerate(self._buffers):
            parent = np.asarray(buf.parent, dtype=np.int64)
            parts["parent"].append(np.where(parent >= 0, parent + offset, -1))
            parts["name"].append(np.asarray(buf.name, dtype=np.int64))
            parts["thread"].append(np.full(len(buf.start), t, dtype=np.int64))
            parts["start"].append(np.asarray(buf.start, dtype=np.float64))
            parts["end"].append(np.asarray(buf.end, dtype=np.float64))
            offset += len(buf.start)
            for k, v in buf.counts.items():
                counts[k] = counts.get(k, 0) + v
        merged = {k: np.concatenate(v) if v else np.zeros(0, np.int64)
                  for k, v in parts.items()}
        names = sorted(self._names, key=self._names.get)
        return Spans(names=names, counts=counts, **merged)


def self_times(parent: np.ndarray, start: np.ndarray,
               end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed duration of its children."""
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child],
                          minlength=len(dur))
    return dur - covered


def summarize(spans: Spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds "s" and "self_s"."""
    dur = spans.end - spans.start
    own = self_times(spans.parent, spans.start, spans.end)
    k = len(spans.names)
    calls = np.bincount(spans.name, minlength=k)
    total = np.bincount(spans.name, weights=dur, minlength=k)
    self_s = np.bincount(spans.name, weights=own, minlength=k)
    return {n: {"calls": int(calls[i]), "s": float(total[i]),
                "self_s": float(self_s[i])}
            for i, n in enumerate(spans.names)}


def save(spans: Spans, path) -> None:
    np.savez_compressed(
        path, names=np.array(spans.names), name=spans.name,
        parent=spans.parent, thread=spans.thread, start=spans.start,
        end=spans.end, count_keys=np.array(list(spans.counts)),
        count_values=np.array(list(spans.counts.values()), dtype=float))


# wrappers -------------------------------------------------------------

def _traced(rec: SpanRecorder, fn, name, after=None):
    label = name if callable(name) else (lambda args: name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.paused:
            return fn(*args, **kwargs)
        token = rec.open(label(args))
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(token)
        if after is not None:
            after(rec, args)
        return out

    return wrapper


def _traced_iter(rec: SpanRecorder, fn, name: str):
    """A span around each step of the generator fn returns."""

    @functools.wraps(fn)
    def wrapper(*args):
        it = fn(*args)
        while True:
            token = None if rec.paused else rec.open(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                if token is not None:
                    rec.close(token)
            yield item

    return wrapper


def _count_flop(rec: SpanRecorder, args) -> None:
    a, b = args[0], args[1]
    rec.add("linalg.matmul.flop", 2 * a.shape[0] * a.shape[1] * b.shape[1])


def _count_bytes(rec: SpanRecorder, args) -> None:
    rec.add("checkpoint.save.bytes", os.path.getsize(args[0]))


def _component(args) -> str:
    return f"al_core.component_update.c{args[0].index}"


def _sites():
    """(owner, attribute, wrapper factory) for every wrapped name."""

    def span(name, after=None):
        return functools.partial(_traced, name=name, after=after)

    return [
        (nn, "matmul", span("linalg.matmul", _count_flop)),
        (nn, "sigmoid", span("nn.sigmoid")),
        (nn, "elu", span("nn.elu")),
        (nn.DenseLayer, "forward", span("nn.dense_forward")),
        (nn.DenseLayer, "backward", span("nn.dense_backward")),
        (nn.BlockAdam, "step", span("nn.adam_step")),
        (train, "component_update", span(_component)),
        (train, "run_pipeline", span("train.run_pipeline")),
        (train, "evaluate_al", span("metrics.evaluate")),
        (train, "evaluate_bp", span("metrics.evaluate")),
        (metrics, "infer", span("al_core.infer")),
        (checkpoint, "save_al", span("checkpoint.save", _count_bytes)),
        (checkpoint, "save_bp", span("checkpoint.save", _count_bytes)),
        (bp.BPNetwork, "train_batch", span("bp.train_batch")),
        (data.BatchIterator, "__iter__",
         functools.partial(_traced_iter, name="data.batch_iter")),
    ]


def install(rec: SpanRecorder) -> list:
    """Wrap every site; returns what ``uninstall`` needs to undo it."""
    installed = []
    for owner, attr, make in _sites():
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        setattr(owner, attr, make(rec, original))
        installed.append((owner, attr, original))
    return installed


def uninstall(installed: list) -> None:
    for owner, attr, original in reversed(installed):
        setattr(owner, attr, original)

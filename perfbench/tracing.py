"""Layer tracing from outside the library.

The benchmark times the calls into each layer's public functions by
replacing them, for the duration of a traced run, with thin wrappers that
record a span — layer, name, start, end, thread and the span that caused it
— into an in-memory list.  Nothing under ``src/`` changes; the wrappers are
installed on the module attributes and class attributes the library looks
the functions up through, and removed again when the run ends.

A layer's self time is the wall time its spans cover, minus the part their
child spans (calls into *other* layers made from inside them) cover, with
overlapping spans of concurrent threads counted once.  Eigendecompositions
run on the session's worker threads, so summing their durations would count
the same second twice on a two-core machine.

Preparation a trajectory prefetches runs in a forked worker process, which
inherits the wrappers.  Spans recorded there are appended to a file per
process under the spill directory and merged back when tracing stops; the
clocks agree because ``time.perf_counter`` is the system-wide monotonic
clock on Linux.

Patch targets are looked up by name; a target a later version of the
library renamed or removed is skipped and listed under ``missing`` in the
trace file instead of failing the run, so the affected metric reads 0.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
import pathlib
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

Interval = Tuple[float, float]


@dataclasses.dataclass
class Span:
    layer: str
    name: str
    start: float
    end: float
    thread: int
    parent: Optional[int]
    shape: Optional[Tuple[int, ...]] = None


#: (module, attribute path, layer, span name).  The attribute path is the
#: name the *calling* code resolves at call time: ``compute_observables`` and
#: ``prepare_step`` look ``orthogonalized_ks`` up in the globals of
#: ``repro.api.observables``, so that is where the wrapper goes.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.api.observables", "orthogonalized_ks", "prep", "orthogonalize"),
    ("repro.api.observables", "block_matrix_from_csr", "dbcsr", "from_csr"),
    ("repro.api.observables", "block_matrix_to_csr", "dbcsr", "to_csr"),
    ("repro.dbcsr.coo", "CooBlockList.from_block_matrix", "dbcsr", "coo"),
    ("repro.api.context", "SubmatrixContext.block_plan_for", "plan", "block_plan_for"),
    ("repro.core.plan", "PlanCache.block_plan", "plan", "block_plan"),
    ("repro.core.plan", "PlanCache.patched_block_plan", "plan", "patched_block_plan"),
    ("repro.api.context", "SubmatrixContext.pipeline", "exchange", "pipeline"),
    ("repro.api.observables", "assemble_result", "assemble", "assemble_result"),
    ("repro.api.observables", "_bisect_mu", "mu", "bisect"),
    ("repro.serve.batcher", "assemble_result", "assemble", "assemble_result"),
    ("repro.serve.batcher", "_bisect_mu", "mu", "bisect"),
    ("numpy.linalg", "eigh", "decompose", "eigh"),
)

#: Layers whose own internal eigendecompositions are not the batched
#: submatrix eigendecomposition (the dense Löwdin S^-1/2 in preparation).
_EIGH_OPAQUE_LAYERS = frozenset({"prep"})


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self, spill_dir: pathlib.Path):
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: List[Tuple[object, str, object]] = []
        self._pid = os.getpid()
        self._spill_dir = pathlib.Path(spill_dir)
        self._observables = None
        # a fork can copy the lock while another thread holds it
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self._lock = threading.Lock()

    # ---------------------------------------------------------------- #
    # recording
    # ---------------------------------------------------------------- #
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, function, layer: str, name: str):
        tracer = self
        is_eigh = layer == "decompose"

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if is_eigh and stack and tracer.spans[stack[-1]].layer in _EIGH_OPAQUE_LAYERS:
                return function(*args, **kwargs)
            shape = None
            if is_eigh and args:
                shape = tuple(int(d) for d in np.shape(args[0]))
            span = Span(
                layer=layer,
                name=name,
                start=time.perf_counter(),
                end=float("nan"),
                thread=threading.get_ident(),
                parent=stack[-1] if stack else None,
                shape=shape,
            )
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            try:
                return function(*args, **kwargs)
            finally:
                stack.pop()
                span.end = time.perf_counter()
                if os.getpid() != tracer._pid:
                    tracer._spill(index, span)

        return traced

    def _spill(self, index: int, span: Span) -> None:
        """Append a span recorded in a forked worker to its process's file."""
        record = dataclasses.asdict(span)
        record["index"] = index
        path = self._spill_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")

    def _collect_spills(self) -> None:
        """Merge worker-process spans, re-basing their parent indices."""
        for path in sorted(self._spill_dir.glob("spans-*.jsonl")):
            mapping: Dict[int, int] = {}
            with open(path, encoding="utf-8") as handle:
                records = [json.loads(line) for line in handle if line.strip()]
            path.unlink()
            for record in records:
                local = record.pop("index")
                parent = record["parent"]
                record["parent"] = mapping.get(parent) if parent is not None else None
                record["thread"] = -int(path.stem.split("-")[1])
                record["shape"] = tuple(record["shape"]) if record["shape"] else None
                mapping[local] = len(self.spans)
                self.spans.append(Span(**record))
        try:
            self._spill_dir.rmdir()
        except OSError:
            pass

    def install(self) -> "Tracer":
        self._spill_dir.mkdir(parents=True, exist_ok=True)
        for module_name, path, layer, name in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attribute = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(raw.__func__, layer, name))
            else:
                replacement = self._wrap(raw, layer, name)
            self._restore.append((owner, attribute, raw))
            setattr(owner, attribute, replacement)
        self._install_observables()
        return self

    def _install_observables(self) -> None:
        """Wrap every registered observable's assembly hook (public registry)."""
        try:
            from repro.api.observables import (
                available_observables,
                get_observable,
                register_observable,
            )
        except ImportError:
            self.missing.append("repro.api.observables registry")
            return
        originals = []
        for key in available_observables():
            observable = get_observable(key)
            originals.append(observable)
            register_observable(
                dataclasses.replace(
                    observable,
                    assemble=self._wrap(observable.assemble, "assemble", f"observable.{key}"),
                ),
                overwrite=True,
            )
        self._observables = (register_observable, originals)

    def uninstall(self) -> None:
        for owner, attribute, raw in reversed(self._restore):
            setattr(owner, attribute, raw)
        self._restore.clear()
        if self._observables is not None:
            register, originals = self._observables
            for observable in originals:
                register(observable, overwrite=True)
            self._observables = None
        self._collect_spills()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ---------------------------------------------------------------- #
    # analysis
    # ---------------------------------------------------------------- #
    def finished(self) -> List[Span]:
        return [s for s in self.spans if np.isfinite(s.end)]

    def self_intervals(self) -> Dict[str, List[Interval]]:
        """Per layer, the intervals its spans cover minus their children.

        Each instant of a thread belongs to the innermost span open on it, so
        a span's own time is its interval minus its direct children's; the
        layer's self time is the union of its spans' own time over all
        threads.
        """
        children: Dict[int, List[Interval]] = {}
        for span in self.finished():
            if span.parent is not None:
                children.setdefault(span.parent, []).append((span.start, span.end))
        by_layer: Dict[str, List[Interval]] = {}
        for index, span in enumerate(self.spans):
            if not np.isfinite(span.end):
                continue
            own = subtract((span.start, span.end), union(children.get(index, [])))
            by_layer.setdefault(span.layer, []).extend(own)
        return {layer: union(intervals) for layer, intervals in by_layer.items()}

    def write(self, path, origin: float, extra: Optional[dict] = None) -> None:
        """Write every span (times relative to ``origin``) as JSON."""
        payload = {
            "missing": list(self.missing),
            "spans": [
                {
                    "index": i,
                    "layer": s.layer,
                    "name": s.name,
                    "start": s.start - origin,
                    "end": s.end - origin,
                    "thread": s.thread,
                    "parent": s.parent,
                    "shape": list(s.shape) if s.shape else None,
                }
                for i, s in enumerate(self.spans)
                if np.isfinite(s.end)
            ],
        }
        if extra:
            payload.update(extra)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


# -------------------------------------------------------------------- #
# interval arithmetic
# -------------------------------------------------------------------- #
def union(intervals: Sequence[Interval]) -> List[Interval]:
    merged: List[Interval] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def subtract(interval: Interval, holes: Sequence[Interval]) -> List[Interval]:
    """``interval`` minus the (sorted, disjoint) ``holes``."""
    start, end = interval
    pieces: List[Interval] = []
    for hole_start, hole_end in holes:
        if hole_end <= start or hole_start >= end:
            continue
        if hole_start > start:
            pieces.append((start, hole_start))
        start = max(start, hole_end)
    if end > start:
        pieces.append((start, end))
    return pieces


def covered(intervals: Sequence[Interval], window: Interval) -> float:
    """Seconds of the (disjoint) ``intervals`` inside ``window``."""
    lo, hi = window
    return float(sum(max(0.0, min(e, hi) - max(s, lo)) for s, e in intervals))

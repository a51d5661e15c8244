"""Spans and counters recorded from outside the `lpw` package.

`Tracer.installed()` replaces `lpw` functions, a few methods and the
`numpy.fft` transforms with wrappers, and puts every original object back on
exit. A wrapper records one span (name, start, end, parent) per call in
memory; `Tracer.write` saves them when the invocation ends. Nothing under
`src/` knows about it.

With `full=False` only `make_corpus` is wrapped: the end of the first corpus
build marks the end of set-up, which the untraced benchmark runs need.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import time
from contextlib import contextmanager
from pathlib import Path

MODULES = ("cli", "suites", "verify", "spaces", "lpaley", "maximal", "weights", "grid")
# Methods traced besides the public module-level functions. A constructor's
# span is named after its class.
METHODS = (
    ("cli", "RunConfig", "__init__"),
    ("weights", "FamilyNodes", "__init__"),
    ("weights", "FamilyNodes", "means"),
    ("weights", "WeightSequence", "on_grid"),
)
# every transform, not only the fftn/ifftn in use today, so the counters stay
# comparable when a real-input transform replaces them
FFT_FUNCTIONS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)
SETUP_SPAN = "verify.make_corpus"
PROBE_SPAN = "trace.probe"

clock = time.monotonic_ns  # CLOCK_MONOTONIC: comparable across processes


class SetupDone(BaseException):
    """Raised after the first corpus is built when only set-up is timed.

    A BaseException, so no `except Exception` inside `lpw` swallows it."""


class Tracer:
    def __init__(self, full: bool, stop_after_setup: bool = False):
        self.full = full
        self.stop_after_setup = stop_after_setup
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array.array("q")
        self.span_start = array.array("q")
        self.span_end = array.array("q")
        self.span_parent = array.array("q")
        self._stack: list[int] = []
        self.setup_end_ns: int | None = None
        self.counters = {
            "lpaley.fft_calls": 0,
            "lpaley.fft_points": 0,
            "lpaley.fft_bytes_computed": 0,
            "lpaley.band.distinct": 0,
            "weights.FamilyNodes.cubes": 0,
            "weights.FamilyNodes.nodes": 0,
        }
        self._band_keys: set = set()

    # -- spans -------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(0)
        self.span_end.append(0)
        self._stack.append(idx)
        return idx

    def _wrap(self, fn, name: str, before=None, after=None):
        nid = self._id(name)
        probe_id = self._id(PROBE_SPAN)
        starts, ends, stack = self.span_start, self.span_end, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                # probe work gets a span of its own so no layer's self time
                # includes it
                idx = self._open(probe_id)
                starts[idx] = clock()
                before(args)
                ends[idx] = clock()
                stack.pop()
            idx = self._open(nid)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- probes --------------------------------------------------------------

    def _band_probe(self, args) -> None:
        f, _pair, k = args[:3]
        # a 64-bit hash: a collision among a run's ~10^5 bands is unlikely
        # enough not to move the ratio
        key = (hash(f.values.tobytes()), f.values.dtype.str, k, f.spec)
        if key not in self._band_keys:
            self._band_keys.add(key)
            self.counters["lpaley.band.distinct"] += 1

    def _nodes_probe(self, args, _result) -> None:
        nodes = args[0]
        self.counters["weights.FamilyNodes.cubes"] += nodes.n_cubes
        self.counters["weights.FamilyNodes.nodes"] += sum(b.radius.size for b in nodes.batches)

    def _setup_marker(self, _args, _result) -> None:
        if self.setup_end_ns is None:
            self.setup_end_ns = clock()
            if self.stop_after_setup:
                raise SetupDone

    def _count_fft(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            size = getattr(a, "size", None)
            counters["lpaley.fft_calls"] += 1
            if size is not None:
                counters["lpaley.fft_points"] += size
                counters["lpaley.fft_bytes_computed"] += a.nbytes + out.nbytes
            return out

        return wrapper

    # -- installation --------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap while the block runs; every replaced object is restored after."""
        restore: list = []
        try:
            self._install(restore)
            yield self
        finally:
            for undo in reversed(restore):
                undo()

    def _install(self, restore: list) -> None:
        pkg = importlib.import_module("lpw")
        modules = {m: importlib.import_module(f"lpw.{m}") for m in MODULES}
        suites = modules["suites"].ALL_SUITES
        suite_names = {id(fn): f"suites.{key}" for key, fn in suites.items()}
        hooks = {
            SETUP_SPAN: (None, self._setup_marker),
            "lpaley.band": (self._band_probe, None),
        }
        make_corpus = modules["verify"].make_corpus
        wrappers: dict[int, object] = {}

        def wrapped(fn):
            if id(fn) not in wrappers:
                name = suite_names.get(id(fn)) or f"{fn.__module__.removeprefix('lpw.')}.{fn.__qualname__}"
                before, after = hooks.get(name, (None, None))
                wrappers[id(fn)] = self._wrap(fn, name, before, after)
            return wrappers[id(fn)]

        def replace(ns: dict, key, new) -> None:
            old = ns[key]
            ns[key] = new
            restore.append(lambda: ns.__setitem__(key, old))

        for module in (pkg, *modules.values()):
            ns = vars(module)
            for key, obj in list(ns.items()):
                if key.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("lpw."):
                    continue
                if self.full or obj is make_corpus:
                    replace(ns, key, wrapped(obj))
        if not self.full:
            return
        for key, fn in list(suites.items()):
            replace(suites, key, wrapped(fn))
        for mod, cls_name, meth in METHODS:
            cls = getattr(modules[mod], cls_name)
            orig = cls.__dict__[meth]
            name = f"{mod}.{cls_name}" if meth == "__init__" else f"{mod}.{cls_name}.{meth}"
            after = self._nodes_probe if name == "weights.FamilyNodes" else None
            setattr(cls, meth, self._wrap(orig, name, after=after))
            restore.append(functools.partial(setattr, cls, meth, orig))
        import numpy.fft

        for name in FFT_FUNCTIONS:
            orig = getattr(numpy.fft, name)
            setattr(numpy.fft, name, self._count_fft(orig))
            restore.append(functools.partial(setattr, numpy.fft, name, orig))

    # -- output --------------------------------------------------------------

    def write(self, stem: Path) -> None:
        """Save spans to `<stem>.spans` (int64 name, start, end and parent
        columns) and everything else to `<stem>.json`."""
        with open(stem.with_suffix(".spans"), "wb") as fh:
            for column in (self.span_name, self.span_start, self.span_end, self.span_parent):
                column.tofile(fh)
        doc = {
            "names": self.names,
            "spans": len(self.span_name),
            "setup_end_ns": self.setup_end_ns,
            "counters": self.counters,
        }
        stem.with_suffix(".json").write_text(json.dumps(doc))


def aggregate(stem: Path) -> tuple[dict, dict]:
    """Per span name: calls, self time and inclusive time in seconds, plus
    the counters. Self time is a span's duration minus its children's."""
    doc = json.loads(stem.with_suffix(".json").read_text())
    columns = []
    with open(stem.with_suffix(".spans"), "rb") as fh:
        for _ in range(4):
            columns.append(array.array("q"))
            columns[-1].fromfile(fh, doc["spans"])
    name, start, end, parent = columns
    dur = [e - s for s, e in zip(start, end)]
    covered = [0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += dur[i]
    stats = {n: {"calls": 0, "self_s": 0.0, "wall_s": 0.0} for n in doc["names"]}
    for i, nid in enumerate(name):
        row = stats[doc["names"][nid]]
        row["calls"] += 1
        row["self_s"] += (dur[i] - covered[i]) / 1e9
        row["wall_s"] += dur[i] / 1e9
    return stats, doc["counters"]

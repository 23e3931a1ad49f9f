"""Span tracing for the benchmark's traced run.

The tracer replaces public viewgan functions with recording wrappers in
every viewgan module namespace that binds them (``viewgan.train.forward``,
``viewgan.evaluate.train``, ``viewgan.gradcheck.loss_discriminator``, ...),
so calls between modules are caught where the caller looks them up. Each
call appends one span (name, parent, start, end) to flat in-memory arrays;
nothing is written until :meth:`Tracer.write`. The program itself is not
modified: leaving the ``with`` block puts every original binding back.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

import numpy as np

# (defining module, function) pairs that get a span. The span name is
# "<layer>.<function>", where the layer is the module's short name, plus a
# variant suffix for the functions listed in _variant below.
TRACED = (
    ("viewgan.nn", "forward"),
    ("viewgan.nn", "backward"),
    ("viewgan.nn", "adam_step"),
    ("viewgan.train", "train"),
    ("viewgan.train", "sample_minibatch"),
    ("viewgan.train", "loss_discriminator"),
    ("viewgan.train", "loss_generator"),
    ("viewgan.train", "feature_matching_penalty"),
    ("viewgan.model", "discriminate"),
    ("viewgan.model", "generate"),
    ("viewgan.model", "save_checkpoint"),
    ("viewgan.model", "load_checkpoint"),
    ("viewgan.data", "generate_synthetic"),
    ("viewgan.data", "save_multiview_file"),
    ("viewgan.data", "load_multiview_file"),
    ("viewgan.evaluate", "evaluate"),
    ("viewgan.evaluate", "train_singleview_baseline"),
    ("viewgan.evaluate", "run_experiment"),
    ("viewgan.theory", "check_theorem"),
    ("viewgan.theory", "brute_force_discriminator"),
    ("viewgan.gradcheck", "check_family"),
    ("viewgan.cli", "main"),
)

_NN_KIND = {"softmax": "disc", "linear": "gen"}


class Tracer:
    """Records spans for the calls listed in TRACED while active."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.current_model = None   # model of the innermost train() call
        self._in_train = 0
        self.step_forward_calls = 0
        self.step_backward_calls = 0
        self.steps = 0

    # ------------------------------------------------------------ patching

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "viewgan" or n.startswith("viewgan."))]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[mod_name], fn_name)
            layer = mod_name.split(".")[1]
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, value))
                        setattr(mod, attr, self._wrap(original, layer, fn_name, mod.__name__))
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()
        return False

    def _id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _wrap(self, fn, layer: str, fn_name: str, namespace: str):
        base = f"{layer}.{fn_name}"
        variant = self._variant(layer, fn_name, namespace)
        ids = {}
        in_train_ns = namespace == "viewgan.train"
        counter = {"forward": "step_forward_calls",
                   "backward": "step_backward_calls"}.get(fn_name) if layer == "nn" else None
        is_train = base == "train.train"
        stack, name_id, parent, start, end = (self._stack, self.name_id, self.parent,
                                              self.start, self.end)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            key = variant(args) if variant else None
            nid = ids.get(key)
            if nid is None:
                nid = ids[key] = self._id(base if key is None else f"{base}.{key}")
            if counter and in_train_ns and self._in_train:
                setattr(self, counter, getattr(self, counter) + 1)
            if is_train:
                saved_model = self.current_model
                self.current_model = args[0]
                self._in_train += 1
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                if is_train:
                    self._in_train -= 1
                    self.current_model = saved_model
                    config = args[2] if len(args) > 2 else kwargs["config"]
                    self.steps += config.iterations

        return wrapper

    def _variant(self, layer, fn_name, namespace):
        """Per-call suffix that splits one function's spans by role."""
        if layer == "nn":
            if namespace == "viewgan.evaluate":
                return lambda args: "baseline"
            if fn_name == "adam_step":
                return self._player
            return lambda args: _NN_KIND[args[0].output_kind]
        if fn_name == "loss_generator":
            return lambda args: f"g{args[1]}"
        if fn_name == "check_family":
            return lambda args: args[0]
        if layer == "cli":
            return lambda args: args[0][0]
        return None

    def _player(self, args):
        model = self.current_model
        first = args[0][0]
        if model is not None:
            for name in ("disc", "gen1", "gen2"):
                if getattr(model, name).weights_in is first:
                    return name
        return "other"

    # ------------------------------------------------------------ results

    def arrays(self):
        """Spans as numpy arrays: name id, parent index, start ns, end ns."""
        return (np.array(self.name_id, dtype=np.uint16),
                np.array(self.parent, dtype=np.int64),
                np.array(self.start, dtype=np.int64),
                np.array(self.end, dtype=np.int64))

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)

    def write(self, path) -> None:
        """Write every span to ``path`` (.npz) with the name table as JSON."""
        name_id, parent, start, end = self.arrays()
        t0 = int(start.min()) if start.size else 0
        np.savez(path, name_id=name_id, parent=parent, start_ns=start - t0,
                 end_ns=end - t0, names=np.array(json.dumps(self.names)))


class SpanSummary:
    """Per-name durations, self times and parent links of a finished trace."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.name_id, self.parent, self.start, self.end = tracer.arrays()
        self.dur = self.end - self.start
        child = np.zeros_like(self.dur)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child

    def _mask(self, name: str, parent: str | None = None):
        """Spans called ``name`` (whose parent span is ``parent``, if given)."""
        ids = {n: i for i, n in enumerate(self.names)}
        mask = self.name_id == ids.get(name, -1)
        if parent is not None:
            mask &= (self.parent >= 0) & (self.name_id[self.parent] == ids.get(parent, -1))
        return mask

    def count(self, prefix: str) -> int:
        ids = [i for i, n in enumerate(self.names) if n == prefix or n.startswith(prefix + ".")]
        return int(np.isin(self.name_id, ids).sum()) if ids else 0

    def mean(self, name: str, *, self_time: bool = False, parent=None) -> float:
        """Mean time per call in ns (0 when the span never occurred)."""
        mask = self._mask(name, parent)
        if not mask.any():
            return 0.0
        return float((self.self_time if self_time else self.dur)[mask].mean())

    def step_durations(self) -> np.ndarray:
        """Time from each training step's minibatch draw to the next step's.

        The last step of a train() call ends when train() returns, so a
        step's time includes its held-out evaluation, CSV row and
        checkpoint write.
        """
        out = []
        draws = self._mask("train.sample_minibatch")
        for t in np.flatnonzero(self._mask("train.train")):
            inside = draws & (self.start >= self.start[t]) & (self.end <= self.end[t])
            starts = np.sort(self.start[inside])
            if starts.size:
                out.append(np.diff(np.append(starts, self.end[t])))
        return np.concatenate(out) if out else np.zeros(0, dtype=np.int64)

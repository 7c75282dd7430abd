"""Span tracing of magna's layers from outside the package.

``Tracer.install()`` replaces the public functions listed in ``LAYER_SPANS``
and every tape op with wrappers that record spans while ``enabled`` is set:
(name, start, end, parent, run id), kept in memory and written out as JSON
lines by ``dump()``. Nothing inside ``src/magna`` changes; the wrappers are
put into every ``magna`` module namespace that holds the original, so calls
through ``from .x import f`` names are caught too. ``uninstall()`` puts the
originals back.

Two kinds of span exist. Layer spans form the tree that self times are taken
over: a layer span's self time is its duration minus that of the layer
spans nested directly in it. Op spans (``tape.op.<op>.fwd`` around an op
call, ``tape.op.<op>.bwd`` around its backward closure) give a by-op view
of the tape; their time stays inside the layer that issued them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import magna
import magna.tape

# (module, attribute path, span name); the name may be a callable of the
# call's (args, kwargs) when one function serves several spans.
LAYER_SPANS = (
    ("magna.graph", "load_node_dataset", "graph.load"),
    ("magna.graph", "load_kg_dataset", "graph.load"),
    ("magna.graph", "Graph.with_self_loops", "graph.self_loops"),
    ("magna.tape", "Tensor.backward", "tape.backward"),
    ("magna.attention", "edge_scores", "attention.scores"),
    ("magna.attention", "attention_weights", "attention.softmax"),
    ("magna.attention", "attention_diffusion", "attention.diffusion"),
    ("magna.attention", "exact_diffusion_oracle", "attention.oracle"),
    ("magna.model", "MagnaNet.forward", "model.forward"),
    ("magna.model", "MagnaNet.block_forward",
     lambda args, kwargs: f"model.block{kwargs.get('index', args[1] if len(args) > 1 else '?')}"),
    ("magna.optim", "Adam.step", "optim.step"),
    ("magna.optim", "ParamStore.snapshot", "optim.snapshot"),
    ("magna.tasks", "cross_entropy_loss", "tasks.loss"),
    ("magna.tasks", "kl_label_smoothing_loss", "tasks.loss"),
    ("magna.tasks", "smoothed_targets", "tasks.targets"),
    ("magna.tasks", "kg_filtered_ranks", "tasks.rank"),
    ("magna.train", "node_accuracy", "train.val"),
    ("magna.train", "kg_validation_mrr", "train.val"),
    ("magna.linalg", "sym_eigen", "linalg.eigen"),
    ("magna.linalg", "dense_solve", "linalg.solve"),
    ("magna.analysis", "spectrum_report", "analysis.report"),
    ("magna.analysis", "verify_eigenvector_sharing", "analysis.share"),
)

# loss functions in tasks are tape ops too, under these op names
TASK_OPS = {"cross_entropy_loss": "cross_entropy", "kl_label_smoothing_loss": "kl_smoothed"}
NOT_OPS = {"Tensor", "NonFiniteError", "no_grad", "count_ops"}
OP_PREFIX = "tape.op."
MAX_COUNTERS = {"tasks.targets_mb"}   # the largest single value, not a sum


def _flop_count(op, args):
    """Computed floating-point operations of one forward call, if known."""
    if op == "matmul":
        a, b = args[0].data, args[1].data
        return 2.0 * a.shape[0] * a.shape[1] * b.shape[1]
    if op == "edge_spmm":
        att, h = args[0].data, args[1].data
        return 2.0 * att.shape[0] * h.shape[1]
    return None


class Tracer:
    def __init__(self):
        self.enabled = False
        self.run_id = ""
        self.spans: list[list] = []      # [name, start, end, parent index, run id]
        self.counters = defaultdict(float)   # (run id, key) -> value
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, value: float) -> None:
        slot = (self.run_id, key)
        self.counters[slot] = max(self.counters[slot], value) if key in MAX_COUNTERS else self.counters[slot] + value

    def _wrap(self, fn, name, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _op_after(self, op):
        def after(args, result):
            self.count(f"{OP_PREFIX}{op}.calls", 1)
            flops = _flop_count(op, args)
            if flops is not None:
                self.count(f"{OP_PREFIX}{op}.mflop", flops / 1e6)
        return after

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Put the wrappers in place; ``uninstall`` takes them out."""
        replace = {}   # original function -> wrapper, composed when listed twice
        methods = []   # (class, attribute, original)
        counters = {
            "graph.load": lambda args, ds: self.count("graph.edges", ds.graph.num_edges),
            "tasks.targets": lambda args, t: self.count("tasks.targets_mb", t.nbytes / 1e6),
            "tasks.rank": lambda args, r: self.count("tasks.ranks", len(r)),
        }
        for name in magna.tape.__all__:
            if name not in NOT_OPS:
                fn = getattr(magna.tape, name)
                replace[fn] = self._wrap(fn, f"{OP_PREFIX}{name}.fwd", self._op_after(name))
        for fname, op in TASK_OPS.items():
            fn = getattr(magna.tasks, fname)
            replace[fn] = self._wrap(fn, f"{OP_PREFIX}{op}.fwd", self._op_after(op))
        for module, path, span in LAYER_SPANS:
            owner = sys.modules[module]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[attr]
                methods.append((cls, attr, fn))
                setattr(cls, attr, self._wrap(fn, span, counters.get(span)))
            else:
                fn = getattr(owner, path)
                replace[fn] = self._wrap(replace.get(fn, fn), span, counters.get(span))

        from_op = magna.tape.Tensor.__dict__["from_op"]
        methods.append((magna.tape.Tensor, "from_op", from_op))
        magna.tape.Tensor.from_op = classmethod(self._from_op(from_op.__func__))

        self._undo = list(methods)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "magna" and not mod_name.startswith("magna."):
                continue
            for attr, value in list(vars(module).items()):
                if callable(value) and value in replace:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replace[value])

    def _from_op(self, from_op):
        """Count recorded tape nodes and time each recorded backward closure."""
        tracer = self

        def wrapped(cls, data, parents, op, backward):
            out = from_op(cls, data, parents, op, backward)
            if tracer.enabled and out._backward is not None:
                tracer.count("tape.nodes", 1)
                out._backward = tracer._wrap(out._backward, f"{OP_PREFIX}{op}.bwd")
            return out

        return wrapped

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo = []
        self.enabled = False

    # -- results -----------------------------------------------------------

    def phase_totals(self, prefix: str) -> tuple[dict, dict, dict]:
        """Self time, inclusive time (seconds) and counters summed over the
        spans whose run id starts with ``prefix``."""
        self_s, total_s, counts = defaultdict(float), defaultdict(float), defaultdict(float)
        spans = self.spans
        layer_parent = []
        for name, start, end, parent, run in spans:
            # nearest enclosing layer span
            while parent >= 0 and spans[parent][0].startswith(OP_PREFIX):
                parent = spans[parent][3]
            layer_parent.append(parent)
        child_time = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(spans):
            if not name.startswith(OP_PREFIX) and layer_parent[i] >= 0:
                child_time[layer_parent[i]] += end - start
        for i, (name, start, end, _, run) in enumerate(spans):
            if run.startswith(prefix):
                total_s[name] += end - start
                if not name.startswith(OP_PREFIX):
                    self_s[name] += end - start - child_time[i]
        for (run, key), value in self.counters.items():
            if run.startswith(prefix):
                counts[key] = max(counts[key], value) if key in MAX_COUNTERS else counts[key] + value
        return self_s, total_s, counts

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics

# the tape ops named in the per-layer table, and how many model blocks the
# benchmark's configs build
REPORTED_OPS = ("edge_spmm", "matmul", "add", "scale", "segment_softmax", "gather_rows",
                "layer_norm", "tanh", "dropout", "concat_cols", "cross_entropy", "kl_smoothed")
FLOP_OPS = ("edge_spmm", "matmul")
BLOCKS = 2

# (metric, unit, phase, value kind, span or counter key). Set-up metrics are
# per set-up; unit metrics are per timed unit. "self" is a layer span's
# self time, "total" its inclusive time.
LAYER_METRICS = (
    ("graph.load_s", "s", "setup", "self", "graph.load"),
    ("graph.self_loops_s", "s", "setup", "self", "graph.self_loops"),
    ("graph.edges", "count", "setup", "count", "graph.edges"),
    ("tape.backward_ms", "ms", "unit", "total", "tape.backward"),
    ("tape.nodes", "count", "unit", "count", "tape.nodes"),
    ("attention.scores_ms", "ms", "unit", "self", "attention.scores"),
    ("attention.softmax_ms", "ms", "unit", "self", "attention.softmax"),
    ("attention.diffusion_ms", "ms", "unit", "self", "attention.diffusion"),
    ("attention.oracle_ms", "ms", "unit", "self", "attention.oracle"),
    ("model.forward_ms", "ms", "unit", "self", "model.forward"),
    *((f"model.block{i}_ms", "ms", "unit", "self", f"model.block{i}") for i in range(BLOCKS)),
    ("optim.step_ms", "ms", "unit", "self", "optim.step"),
    ("optim.snapshot_ms", "ms", "unit", "self", "optim.snapshot"),
    ("tasks.loss_ms", "ms", "unit", "self", "tasks.loss"),
    ("tasks.targets_s", "s", "setup", "self", "tasks.targets"),
    ("tasks.rank_ms", "ms", "unit", "self", "tasks.rank"),
    ("tasks.ranks", "count", "unit", "count", "tasks.ranks"),
    ("train.val_ms", "ms", "unit", "total", "train.val"),
    ("linalg.eigen_ms", "ms", "unit", "self", "linalg.eigen"),
    ("linalg.solve_ms", "ms", "unit", "self", "linalg.solve"),
    ("analysis.report_ms", "ms", "unit", "self", "analysis.report"),
    ("analysis.share_ms", "ms", "unit", "self", "analysis.share"),
    *((f"tape.op.{op}.{part}_ms", "ms", "unit", "total", f"tape.op.{op}.{part}")
      for op in REPORTED_OPS for part in ("fwd", "bwd")),
    *((f"tape.op.{op}.calls", "count", "unit", "count", f"tape.op.{op}.calls") for op in REPORTED_OPS),
)


def layer_metrics(tracer: Tracer, setups: int, units: int) -> dict:
    """Every per-layer metric as {name: (value, unit)}; zero for a layer the
    workload does not reach."""
    phases = {"setup": tracer.phase_totals("setup"), "unit": tracer.phase_totals("unit")}
    per = {"setup": 1.0 / max(setups, 1), "unit": 1.0 / max(units, 1)}
    out = {}
    for name, unit, phase, kind, key in LAYER_METRICS:
        self_s, total_s, counts = phases[phase]
        value = {"self": self_s, "total": total_s, "count": counts}[kind][key] * per[phase]
        out[name] = (value * 1e3 if unit == "ms" else value, unit)
    _, total_s, counts = phases["unit"]
    fwd = sum(v for k, v in total_s.items() if k.startswith(OP_PREFIX) and k.endswith(".fwd"))
    out["tape.forward_ms"] = (fwd * per["unit"] * 1e3, "ms")
    for op in FLOP_OPS:
        calls = counts[f"{OP_PREFIX}{op}.calls"]
        out[f"tape.op.{op}.mflop_per_call"] = (counts[f"{OP_PREFIX}{op}.mflop"] / calls if calls else 0.0, "MFLOP")
    targets = max(phases["setup"][2]["tasks.targets_mb"], counts["tasks.targets_mb"])
    out["tasks.targets_mb"] = (targets, "MB")
    return out

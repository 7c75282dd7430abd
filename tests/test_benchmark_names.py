"""The package names that the benchmark in ``perfbench/`` wraps or calls
must exist.

``perfbench/tracing.py`` looks its layer spans and loss ops up by name, and
``perfbench/workloads.py`` calls the package through ``magna.<name>``
attributes and imports. A deleted or renamed name would otherwise fail only
the traced benchmark runs. These tests read the benchmark's files and
change nothing in them.

The tracer's ``attention.softmax`` and ``attention.diffusion`` spans catch
the block's calls through the names ``magna.model`` imports, so the block
must call ``attention_weights`` and ``attention_diffusion`` once per head.
The traced ``kg_train`` run also needs ``train_kg`` to build its first
batch's targets before the first training forward, since the tracer counts
every span before that forward as set-up, and to call the KL loss on them
once per step.

The committed ``BENCH_<workload>.json`` records of before and after runs
keep one schema, checked here.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os

import pytest

import numpy as np

import magna
import magna.model
import magna.tape
import magna.train
from magna.model import MagnaNet, NetworkConfig
from magna.optim import ParamStore
from magna.tape import Tensor

from helpers import compositional_kg, random_graph

ROOT = os.path.join(os.path.dirname(__file__), "..")
PERFBENCH = os.path.join(ROOT, "perfbench")


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  os.path.join(PERFBENCH, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _dotted(node) -> str | None:
    """``magna.a.b`` for an attribute chain rooted at the name ``magna``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "magna":
        return ".".join(["magna", *reversed(parts)])
    return None


def _magna_references(path: str) -> list[str]:
    """Every ``magna.<name>...`` attribute chain, ``from magna... import
    name`` and ``patched(magna..., "attr", ...)`` in the file, as dotted
    paths."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "magna":
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Attribute) and _dotted(node):
            found.add(_dotted(node))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "patched" and _dotted(node.args[0])):
            found.add(f"{_dotted(node.args[0])}.{node.args[1].value}")
    return sorted(found)


def _resolve(dotted: str):
    """Import the longest module prefix of ``dotted`` and fetch the rest as
    attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


TRACING = _tracing_module()


@pytest.mark.parametrize("module, path", [(m, p) for m, p, _ in TRACING.LAYER_SPANS],
                         ids=[f"{m}.{p}" for m, p, _ in TRACING.LAYER_SPANS])
def test_traced_layer_names_exist(module, path):
    owner = importlib.import_module(module)
    if "." in path:  # the tracer replaces methods in the class's own namespace
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(owner, cls_name)), f"{module}.{path} is not defined"
    else:
        assert callable(getattr(owner, path)), f"{module}.{path} is not callable"


def test_traced_ops_exist():
    for name in TRACING.TASK_OPS:
        assert callable(getattr(magna.tasks, name)), f"magna.tasks.{name} is not callable"
    for name in magna.tape.__all__:
        assert hasattr(magna.tape, name), f"magna.tape.__all__ names a missing {name}"


def test_workload_references_resolve():
    refs = _magna_references(os.path.join(PERFBENCH, "workloads.py"))
    # the scan sees calls, imports and patched methods
    assert {"magna.load_node_dataset", "magna.train.TrainConfig", "magna.tape.Tensor.backward"} <= set(refs)
    for dotted in refs:
        _resolve(dotted)


def test_tape_keeps_the_hooks_the_tracer_and_trainer_workloads_patch():
    # the tracer rebinds ``from_op`` and wraps each recorded adjoint through
    # ``_backward``; the trainer workloads rebind ``backward``
    from_op = Tensor.__dict__["from_op"]
    assert isinstance(from_op, classmethod)
    assert list(inspect.signature(from_op.__func__).parameters) == ["cls", "data", "parents", "op", "backward"]
    assert inspect.isfunction(Tensor.__dict__["backward"])

    leaf = Tensor(np.array([[1.0, -2.0], [3.0, -4.0]]), requires_grad=True)
    assert leaf._backward is None
    with magna.tape.no_grad():
        assert magna.tape.relu(leaf)._backward is None
    assert magna.tape.relu(Tensor(leaf.data))._backward is None

    out = magna.tape.relu(leaf)
    adjoint, ran = out._backward, []

    def wrapped(g):
        ran.append(g.shape)
        adjoint(g)

    out._backward = wrapped
    assert out._backward is wrapped
    loss = magna.tape.matmul(magna.tape.matmul(Tensor(np.ones((1, 2))), out), Tensor(np.ones((2, 1))))
    loss.backward()
    assert ran == [(2, 2)]
    assert np.array_equal(leaf.grad, [[1.0, 0.0], [1.0, 0.0]])


def test_kg_train_builds_targets_before_the_forward_and_takes_one_loss_per_step(tmp_path, monkeypatch):
    kg = compositional_kg(str(tmp_path))
    events = []

    def spy(name, fn, record=lambda *args, **kwargs: None):
        def wrapped(*args, **kwargs):
            events.append((name, record(*args, **kwargs)))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(magna.train, "smoothed_targets", spy("targets", magna.train.smoothed_targets))
    monkeypatch.setattr(magna.train, "kl_label_smoothing_loss",
                        spy("loss", magna.train.kl_label_smoothing_loss,
                            lambda *args: args[4].size))  # the targets
    monkeypatch.setattr(MagnaNet, "forward",
                        spy("forward", MagnaNet.forward,
                            lambda self, x, training=False, rng=None: training))
    net = NetworkConfig(blocks=1, dim=8, heads=1, hops=2, relation_dim=4)
    # one epoch of one step: every training query fits in the batch
    magna.train.train_kg(kg, net, magna.train.TrainConfig(epochs=1, batch_size=10**6), entity_dim=8)

    training_forwards = [i for i, event in enumerate(events) if event == ("forward", True)]
    losses = [size for name, size in events if name == "loss"]
    assert len(training_forwards) == 1
    assert events.index(("targets", None)) < training_forwards[0]
    assert len(losses) == len(training_forwards)
    assert all(size > 0 for size in losses)


def test_block_calls_the_traced_attention_names_once_per_head(rng, monkeypatch):
    calls = {"attention_weights": 0, "attention_diffusion": 0}

    def counted(name):
        fn = getattr(magna.model, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in calls:
        monkeypatch.setattr(magna.model, name, counted(name))
    g = random_graph(rng, 7, extra_edges=5)
    blocks, heads = 2, 3
    cfg = NetworkConfig(blocks=blocks, dim=4, heads=heads, hops=2, relation_dim=3,
                        dropout_attention=0.2, dropout_feature=0.2)
    net = MagnaNet(cfg, g, 3, ParamStore(), np.random.default_rng(0))
    net.forward(Tensor(rng.normal(size=(7, 3))), training=True, rng=np.random.default_rng(1))
    assert calls == {"attention_weights": blocks * heads, "attention_diffusion": blocks * heads}


BENCH_FILES = sorted(name for name in os.listdir(ROOT) if name.startswith("BENCH_") and name.endswith(".json"))


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("name", BENCH_FILES)
def test_bench_file_keeps_the_shared_schema(name):
    # the schema the committed before/after records share; extra sections
    # are allowed
    with open(os.path.join(ROOT, name), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        workloads = {w["name"] for w in json.load(fh)["workloads"]}
    assert bench["workload"] == name[len("BENCH_"):-len(".json")]
    assert bench["workload"] in workloads
    assert bench["command"] and bench["claim"]
    assert {"nproc", "memory_gb", "blas_threads", "python", "numpy", "scipy"} <= set(bench["machine"])
    assert {"git_sha", "src_sha256"} <= set(bench["parent"])
    assert {"base", "src_sha256"} <= set(bench["change"])
    final = bench["final"]
    for side in ("parent", "change"):
        assert len(final[side]["samples"]) == final["pairs"], side

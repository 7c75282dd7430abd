import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from magna import train
from magna.graph import SPLIT_TRAIN, NodeDataset
from magna.model import NetworkConfig
from magna.optim import Adam, load_checkpoint, save_checkpoint
from magna.tasks import cross_entropy_loss
from magna.train import (
    EarlyStopper,
    TrainConfig,
    build_kg_model,
    build_node_model,
    kg_validation_mrr,
    train_kg,
    train_node_classifier,
)

from helpers import answer_sets, compositional_kg, peak_traced_bytes, separable_node_dataset

TOY_NET = NetworkConfig(blocks=2, dim=16, heads=2, alpha=0.3, hops=3, relation_dim=4,
                        dropout_attention=0.1, dropout_feature=0.1)
TOY_TRAIN = TrainConfig(lr=0.01, weight_decay=1e-4, epochs=200, window=60, seed=1)

KG_NET = NetworkConfig(blocks=2, dim=32, heads=2, alpha=0.15, hops=3, relation_dim=16)
KG_TRAIN = TrainConfig(lr=2e-2, weight_decay=1e-8, epochs=1000, window=200, seed=0,
                       batch_size=256)


def reports_equal_modulo_wall(a, b) -> bool:
    da, db = dataclasses.asdict(a), dataclasses.asdict(b)
    da.pop("wall_seconds")
    db.pop("wall_seconds")
    return da == db


@pytest.mark.parametrize("value", [2.0, True, "2"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("name", ["epochs", "window", "batch_size", "seed"])
def test_integer_fields_reject_other_types(name, value):
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        TrainConfig(**{name: value})


@pytest.mark.parametrize("value", [True, "0.1", None], ids=["bool", "str", "none"])
@pytest.mark.parametrize("name", ["lr", "weight_decay", "label_smoothing"])
def test_real_fields_reject_other_types(name, value):
    with pytest.raises(ValueError, match=re.escape(f"{name} must be a number, got {value!r}")):
        TrainConfig(**{name: value})


def test_real_fields_accept_an_integer():
    cfg = TrainConfig(lr=1, weight_decay=0, label_smoothing=0)
    assert (cfg.lr, cfg.weight_decay, cfg.label_smoothing) == (1, 0, 0)


@pytest.mark.parametrize("name, value, message", [
    ("label_smoothing", 1.5, "label smoothing must be in [0, 1), got 1.5"),
    ("label_smoothing", 1.0, "label smoothing must be in [0, 1), got 1.0"),
    ("label_smoothing", -0.1, "label smoothing must be in [0, 1), got -0.1"),
    ("weight_decay", -1.0, "weight decay must be >= 0, got -1.0"),
])
def test_loss_and_decay_ranges_are_checked_up_front(name, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        TrainConfig(**{name: value})


@pytest.mark.parametrize("name", ["lr", "weight_decay"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_rates_must_be_finite(name, value):
    # NaN passes the range checks, and both would fail only at the first step
    with pytest.raises(ValueError, match=re.escape(f"{name} must be finite, got {value}")):
        TrainConfig(**{name: value})


# ---------------------------------------------------------------------------
# early stopping


def test_stopper_never_stops_inside_window():
    s = EarlyStopper(window=3)
    s.update(1, 0.5)
    for epoch, metric in ((2, 0.4), (3, 0.4)):
        s.update(epoch, metric)
        assert not s.should_stop
    s.update(4, 0.4)
    assert s.should_stop
    assert s.best_epoch == 1


def test_stopper_window_one_stops_at_epoch_two():
    s = EarlyStopper(window=1)
    assert s.update(1, 0.7)
    assert not s.should_stop
    assert not s.update(2, 0.7)  # equal is not an improvement
    assert s.should_stop
    assert s.best_epoch == 1


def test_stopper_resets_on_improvement():
    s = EarlyStopper(window=2)
    s.update(1, 0.1)
    s.update(2, 0.05)
    s.update(3, 0.2)
    assert not s.should_stop
    assert s.best_epoch == 3


def test_stopper_validates_window():
    with pytest.raises(ValueError):
        EarlyStopper(window=0)


# ---------------------------------------------------------------------------
# node classification


def test_toy_training_reaches_full_train_accuracy():
    ds = separable_node_dataset(seed=0, per_class=10)
    report, model = train_node_classifier(ds, TOY_NET, TOY_TRAIN)
    assert len(report.train_loss) <= 200
    _, train_acc = cross_entropy_loss(model.logits(), ds.labels, ds.mask(SPLIT_TRAIN))
    assert train_acc == 1.0
    assert report.best_val >= 0.8


def test_same_seed_reports_are_identical():
    ds = separable_node_dataset(seed=0, per_class=8)
    cfg = dataclasses.replace(TOY_TRAIN, epochs=40, window=40)
    r1, _ = train_node_classifier(ds, TOY_NET, cfg)
    r2, _ = train_node_classifier(ds, TOY_NET, cfg)
    assert reports_equal_modulo_wall(r1, r2)


def test_different_seeds_differ():
    ds = separable_node_dataset(seed=0, per_class=8)
    cfg = dataclasses.replace(TOY_TRAIN, epochs=30, window=30)
    r1, _ = train_node_classifier(ds, TOY_NET, cfg)
    r2, _ = train_node_classifier(ds, TOY_NET, dataclasses.replace(cfg, seed=2))
    assert r1.train_loss != r2.train_loss


def test_test_labels_never_influence_training():
    ds = separable_node_dataset(seed=0, per_class=8)
    scrambled_labels = ds.labels.copy()
    test_mask = ds.split == 2
    scrambled_labels[test_mask] = 1 - scrambled_labels[test_mask]
    scrambled = NodeDataset(ds.graph, ds.features, scrambled_labels, ds.split, ds.num_classes)
    cfg = dataclasses.replace(TOY_TRAIN, epochs=40, window=40)
    r1, _ = train_node_classifier(ds, TOY_NET, cfg)
    r2, _ = train_node_classifier(scrambled, TOY_NET, cfg)
    # the whole trajectory matches; only the final test metric may move
    assert r1.train_loss == r2.train_loss
    assert r1.val_metric == r2.val_metric
    assert r1.best_epoch == r2.best_epoch
    assert r1.test_metric + r2.test_metric == pytest.approx(1.0)


def test_best_checkpoint_reproduces_val_metric(tmp_path):
    ds = separable_node_dataset(seed=4, per_class=8)
    report, model = train_node_classifier(ds, TOY_NET, dataclasses.replace(TOY_TRAIN, epochs=50, window=50))
    path = str(tmp_path / "ckpt.json")
    save_checkpoint(path, model.store)

    fresh = build_node_model(ds, TOY_NET, np.random.default_rng(999))
    values, _ = load_checkpoint(path)
    fresh.store.restore(values)
    _, val_acc = cross_entropy_loss(fresh.logits(), ds.labels, ds.split == 1)
    assert val_acc == report.best_val


def test_divergence_aborts_with_parameter_name():
    ds = separable_node_dataset(seed=0, per_class=6)
    wild = dataclasses.replace(TOY_TRAIN, lr=1e18, epochs=30, window=30)
    with np.errstate(all="ignore"):
        with pytest.raises(Exception) as err:
            train_node_classifier(ds, TOY_NET, wild)
    assert "non-finite" in str(err.value)


def test_node_training_numerics_are_pinned():
    # exact values of two blocks of two heads at K = 3 with both dropouts on,
    # so the head loop and the order of the dropout draws are pinned; noisy
    # features keep the validation accuracy off its ceiling
    ds = separable_node_dataset(seed=0, per_class=16)
    noisy = ds.features + 2.0 * np.random.default_rng(0).normal(size=ds.features.shape)
    ds = NodeDataset(ds.graph, noisy, ds.labels, ds.split, ds.num_classes)
    net = NetworkConfig(blocks=2, dim=8, heads=2, alpha=0.3, hops=3, relation_dim=4,
                        dropout_attention=0.2, dropout_feature=0.2)
    report, _ = train_node_classifier(ds, net, TrainConfig(lr=0.01, weight_decay=1e-4, epochs=6,
                                                           window=6, seed=3))
    assert report.train_loss == [1.3952110183231208, 1.2682657407851137, 1.1499709989165139,
                                 0.6810287106657195, 0.23409098956128416, 0.051444490067496754]
    assert report.val_metric == [0.625, 0.75, 0.875, 0.875, 0.875, 0.875]
    assert report.test_metric == 1.0


# ---------------------------------------------------------------------------
# knowledge-graph completion


@pytest.fixture(scope="module")
def toy_kg(tmp_path_factory):
    return compositional_kg(str(tmp_path_factory.mktemp("kg")))


def test_train_queries_match_grouping_into_sets(toy_kg):
    groups = answer_sets(toy_kg.train, len(toy_kg.relation_names))
    heads, rels, tails = train._train_queries(toy_kg)
    assert list(zip(heads.tolist(), rels.tolist())) == sorted(groups)
    for key, got in zip(sorted(groups), tails):
        assert got.dtype == np.int64 and got.tolist() == sorted(groups[key])


def test_compositional_kg_reaches_high_validation_mrr(toy_kg):
    report, model = train_kg(toy_kg, KG_NET, KG_TRAIN, entity_dim=32)
    assert report.best_val > 0.9
    assert kg_validation_mrr(model, toy_kg.valid) == report.best_val


def test_kg_training_numerics_are_pinned(toy_kg):
    # exact values of the one-query-at-a-time ranker with all targets built
    # up front; blocked ranking and per-batch targets must not move a bit
    small = dataclasses.replace(KG_TRAIN, epochs=3, window=3)
    report, _ = train_kg(toy_kg, KG_NET, small, entity_dim=16)
    assert report.train_loss == [5.541060404645261, 4.610328085862478, 3.033778993355198]
    assert report.val_metric == [0.030134020857843738, 0.06780303030303031, 0.08056628056628057]


def test_kg_single_batch_when_batch_size_covers_groups(toy_kg):
    small = dataclasses.replace(KG_TRAIN, epochs=5, window=5)
    r_all, _ = train_kg(toy_kg, KG_NET, small, entity_dim=16)
    r_huge, _ = train_kg(toy_kg, KG_NET, dataclasses.replace(small, batch_size=10**9), entity_dim=16)
    assert reports_equal_modulo_wall(r_all, r_huge)


def test_kg_same_seed_determinism(toy_kg):
    small = dataclasses.replace(KG_TRAIN, epochs=5, window=5)
    r1, _ = train_kg(toy_kg, KG_NET, small, entity_dim=16)
    r2, _ = train_kg(toy_kg, KG_NET, small, entity_dim=16)
    assert reports_equal_modulo_wall(r1, r2)


def test_kg_training_holds_one_step_at_a_time(toy_kg, monkeypatch):
    class Stopped(Exception):
        pass

    def peak_over_steps(steps: int) -> int:
        class StoppingAdam(Adam):
            def step(self):
                super().step()
                if self.step_count == steps:
                    raise Stopped

        monkeypatch.setattr(train, "Adam", StoppingAdam)

        def run():
            with pytest.raises(Stopped):
                train_kg(toy_kg, KG_NET, dataclasses.replace(KG_TRAIN, batch_size=16), entity_dim=16)

        return peak_traced_bytes(run)

    # 90 train queries: steps 1 to 4 are full batches of 16. A step that
    # still held its predecessor's graph peaked about 25% above one step here
    one_step = peak_over_steps(1)
    assert peak_over_steps(4) < 1.1 * one_step


def test_kg_step_holds_at_most_two_batch_by_entity_arrays(tmp_path, monkeypatch):
    # the targets and the loss's buffer, which holds the scores, then their
    # softmax, then their gradient; a separate score matrix would be a third.
    # At 1,000 entities a KL row block is 32 rows, half the batch
    kg = compositional_kg(str(tmp_path), groups=250)
    batch = 64
    assert kg.num_entities == 1000
    size = 8 * batch * kg.num_entities
    numpy_buffers = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
    # every batch x entities array of a step is made in these files
    watched = tuple(os.path.join("magna", name) for name in ("tasks.py", "train.py"))
    most = 0

    def count_live(frame, event, arg):
        # after each line run: a snapshot only when the bytes traced since
        # the step began could hold one more array than seen so far
        nonlocal most
        if tracemalloc.get_traced_memory()[0] >= (most + 1) * size:
            traces = tracemalloc.take_snapshot().filter_traces([numpy_buffers]).traces
            most = max(most, sum(t.size == size for t in traces))
        return count_live

    def trace_watched(frame, event, arg):
        return count_live if frame.f_code.co_filename.endswith(watched) else None

    class Stopped(Exception):
        pass

    class OneStepAdam(Adam):
        def step(self):
            super().step()
            raise Stopped

    def targets_starting_the_trace(*args):
        tracemalloc.start()
        return smoothed_targets(*args)

    smoothed_targets = train.smoothed_targets
    monkeypatch.setattr(train, "smoothed_targets", targets_starting_the_trace)
    monkeypatch.setattr(train, "Adam", OneStepAdam)
    net = NetworkConfig(blocks=1, dim=8, heads=1, hops=2, relation_dim=4)
    sys.settrace(trace_watched)
    try:
        with pytest.raises(Stopped):
            train_kg(kg, net, TrainConfig(epochs=1, batch_size=batch), entity_dim=8)
    finally:
        sys.settrace(None)
        tracemalloc.stop()
    assert most == 2


def test_kg_test_triples_never_influence_training(tmp_path):
    import os
    import shutil

    from magna.graph import load_kg_dataset

    base_dir = str(tmp_path / "kg_base")
    compositional_kg(base_dir)
    other_dir = str(tmp_path / "kg_other")
    shutil.copytree(base_dir, other_dir)
    # replace the held-out test triple with a false one over existing entities
    # whose query keys do not intersect the validation queries
    with open(os.path.join(other_dir, "test.txt"), "w") as fh:
        fh.write("b4_0\tr1\tc7\n")
    base = load_kg_dataset(base_dir)
    altered = load_kg_dataset(other_dir)
    assert np.array_equal(base.train, altered.train)

    small = dataclasses.replace(KG_TRAIN, epochs=8, window=8)
    r1, _ = train_kg(base, KG_NET, small, entity_dim=16)
    r2, _ = train_kg(altered, KG_NET, small, entity_dim=16)
    # same train/valid splits and seed: identical optimization and selection
    assert r1.train_loss == r2.train_loss
    assert r1.val_metric == r2.val_metric
    assert r1.best_epoch == r2.best_epoch


# ---------------------------------------------------------------------------
# allocator thresholds


def _on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


# ru_minflt at each training forward of a three-epoch KG run; printed as JSON
# with the steps per epoch
_STEP_FAULTS = """
import json, resource, sys
from magna import model, train
from magna.graph import load_kg_dataset
from magna.model import NetworkConfig
from magna.train import TrainConfig, train_kg

faults = []
forward = model.MagnaNet.forward

def counted(self, *args, training=False, **kwargs):
    if training:
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    return forward(self, *args, training=training, **kwargs)

model.MagnaNet.forward = counted
kg = load_kg_dataset(sys.argv[1])
net = NetworkConfig(blocks=2, dim=32, heads=2, alpha=0.15, hops=3, relation_dim=16)
cfg = TrainConfig(lr=2e-2, weight_decay=1e-8, epochs=3, window=3, batch_size=256)
train_kg(kg, net, cfg, entity_dim=32)
queries = len(train._train_queries(kg)[0])
print(json.dumps({"faults": faults, "steps_per_epoch": -(-queries // cfg.batch_size)}))
"""


@pytest.mark.skipif(not _on_glibc(), reason="the heap thresholds are set on glibc only")
def test_kg_steps_after_the_first_epoch_reuse_the_heap(tmp_path):
    # 1,405 entities at batch 256: each batch x entities array is 2.9 MB, far
    # above glibc's initial 128 KB mmap threshold. Under glibc's dynamic
    # thresholds each step trimmed the heap and faulted it back in, 1,218 to
    # 2,989 faults a step after the first epoch; with them pinned, at most 36
    gen = np.random.default_rng(0)
    triples = np.unique(np.stack([gen.integers(0, 2000, 1200), gen.integers(0, 4, 1200),
                                  gen.integers(0, 2000, 1200)], axis=1), axis=0)
    gen.shuffle(triples)
    for name, rows in (("train.txt", triples[:-40]), ("valid.txt", triples[-40:-20]),
                       ("test.txt", triples[-20:])):
        with open(tmp_path / name, "w") as fh:
            fh.writelines(f"e{h}\tr{r}\te{t}\n" for h, r, t in rows)
    # a fresh interpreter: no earlier test has set or moved the thresholds
    env = {k: v for k, v in os.environ.items()
           if not (k.startswith("MALLOC_") or k == "GLIBC_TUNABLES")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(train.__file__))
    proc = subprocess.run([sys.executable, "-c", _STEP_FAULTS, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout)
    per_step = np.diff(run["faults"])[run["steps_per_epoch"]:]
    assert len(per_step) >= run["steps_per_epoch"]
    assert per_step.max() < 200, per_step.tolist()


@pytest.fixture
def mallopt_calls(monkeypatch):
    """Replace ``ctypes.CDLL`` by a libc that records each ``mallopt`` call and
    clear glibc's malloc settings from the environment; returns the record."""
    calls = []

    class Libc:
        def __init__(self, name):
            def mallopt(param, value):
                calls.append((param, value))
                return 1

            self.mallopt = mallopt

    monkeypatch.setattr(train.ctypes, "CDLL", Libc)
    for name in list(os.environ):
        if name.startswith("MALLOC_") or name == "GLIBC_TUNABLES":
            monkeypatch.delenv(name)
    return calls


@pytest.mark.parametrize("env", [{}, {"MALLOC_TRIM_THRESHOLD_": "1048576"},
                                 {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=1048576"}],
                         ids=["no-glibc", "malloc-variable", "glibc-tunable"])
def test_heap_thresholds_leave_other_libcs_and_user_settings_alone(env, mallopt_calls, monkeypatch):
    if not env:
        monkeypatch.delattr(train.os, "confstr", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    train._pin_heap_thresholds()
    assert mallopt_calls == []


@pytest.mark.skipif(not _on_glibc(), reason="the heap thresholds are set on glibc only")
def test_heap_thresholds_set_both_on_glibc(mallopt_calls, monkeypatch):
    monkeypatch.setenv("GLIBC_TUNABLES", "glibc.rtld.optional_static_tls=512")
    train._pin_heap_thresholds()
    # M_MMAP_THRESHOLD = 32 MiB, then M_TRIM_THRESHOLD = 128 MiB
    assert mallopt_calls == [(-3, 32 << 20), (-1, 128 << 20)]


# ---------------------------------------------------------------------------
# parameter layout

PIN_NET = NetworkConfig(blocks=2, dim=4, heads=2, alpha=0.3, hops=2, relation_dim=3)


def _block_layout(i):
    heads = [(f"block{i}.head{k}.{w}", shape) for k in range(2)
             for w, shape in (("w_h", (4, 4)), ("w_t", (4, 4)), ("w_r", (4, 3)), ("v_a", (1, 12)))]
    return heads + [(f"block{i}.w_o", (8, 4)),
                    (f"block{i}.ln1.gamma", (1, 4)), (f"block{i}.ln1.beta", (1, 4)),
                    (f"block{i}.ln2.gamma", (1, 4)), (f"block{i}.ln2.beta", (1, 4)),
                    (f"block{i}.ffn.w1", (4, 4)), (f"block{i}.ffn.b1", (1, 4)),
                    (f"block{i}.ffn.w2", (4, 4)), (f"block{i}.ffn.b2", (1, 4))]


def _layout_and_digest(store):
    digest = hashlib.sha256()
    for name, p in store.items():
        digest.update(name.encode())
        digest.update(p.data.astype("<f8").tobytes())
    return [(name, p.data.shape) for name, p in store.items()], digest.hexdigest()


def test_initial_parameters_are_pinned(tmp_path):
    """Names, order, shapes and initial values of a node and a KG model at a
    fixed seed: a rename or a change in the generator's draw order, either of
    which breaks saved checkpoints, fails here. The values come from the
    generator alone, with no BLAS, so the digests hold on every machine."""
    node = build_node_model(separable_node_dataset(seed=0, per_class=4), PIN_NET,
                            np.random.default_rng(7))
    layout, digest = _layout_and_digest(node.store)
    assert layout == [("input.w", (4, 4)), ("input.b", (1, 4)), ("relations", (1, 3)),
                      *_block_layout(0), *_block_layout(1),
                      ("classifier.w", (4, 2)), ("classifier.b", (1, 2))]
    assert digest == "b2f04429ee8d9231700b43a990ef86c106e8ee415f53cfaca27f22be002a4ffd"

    kg = compositional_kg(str(tmp_path / "kg"), groups=3)
    model = build_kg_model(kg, PIN_NET, np.random.default_rng(7), entity_dim=5)
    layout, digest = _layout_and_digest(model.store)
    assert layout == [("entities", (12, 5)), ("input.w", (5, 4)), ("input.b", (1, 4)),
                      ("relations", (6, 3)), *_block_layout(0), *_block_layout(1),
                      ("decoder.relations", (6, 4))]
    assert digest == "efa45fb2ab163b4a2b450c614b5468e7430ea07d571cab250c2222331bbf4019"

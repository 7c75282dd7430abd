import dataclasses

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

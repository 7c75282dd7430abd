import hashlib
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from magna.cli import load_run_config
from magna.model import NetworkConfig
from magna.search import run_trials, sample_space, sample_trials, validate_space
from magna.train import TrainConfig

from helpers import compositional_kg, separable_node_dataset

NET = NetworkConfig(blocks=1, dim=8, heads=2, alpha=0.3, hops=2, relation_dim=4)
TRAIN = TrainConfig(lr=0.02, weight_decay=1e-4, epochs=25, window=25)
CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "configs")


def _outcomes(rows):
    """Each trial's index, parameters and metrics."""
    return [{k: r[k] for k in ("trial", "params", "val_metric", "test_metric")} for r in rows]


def test_validate_space_rejects_unknown_parameter():
    with pytest.raises(ValueError, match="unknown search parameter"):
        validate_space({"learning_rate_typo": {"kind": "fixed", "value": 1}})


def test_validate_space_rejects_bad_entries():
    with pytest.raises(ValueError, match="kind"):
        validate_space({"lr": {"kind": "uniform"}})
    with pytest.raises(ValueError, match="low < high"):
        validate_space({"lr": {"kind": "range", "low": 2.0, "high": 1.0}})
    with pytest.raises(ValueError, match="positive"):
        validate_space({"lr": {"kind": "range", "low": -1.0, "high": 1.0, "scale": "log"}})
    with pytest.raises(ValueError, match="nonempty"):
        validate_space({"hops": {"kind": "choice", "values": []}})
    with pytest.raises(ValueError, match="unexpected keys"):
        validate_space({"lr": {"kind": "fixed", "value": 1, "bonus": 2}})
    with pytest.raises(ValueError, match="nonempty"):
        validate_space({"hops": {"kind": "grid", "values": 3}})


def _space(name):
    """The JSON file ``name`` in configs/."""
    with open(os.path.join(CONFIGS, name)) as fh:
        return json.load(fh)


# sha256 of json.dumps([[params, trial seed], ...]) for three trials, recorded
# before the grid kind existed: a space without a grid entry must keep every draw
PINNED_DRAWS = {
    ("search_node.json", 0): "a06acde687df3c53d07ac2e186cbb909f9db50e431393eebf805cbfe87bfb370",
    ("search_node.json", 7): "ebf2e754106836128d197fd98700550b198194fc6e75d1f0075e039dd3255ef0",
    ("search_kg.json", 0): "36cf144a87b88695240bca51ea35a20a0f02474aa18f9999c7a7185899eba676",
    ("search_kg.json", 7): "0f2d1996fb65d7e4936546dd649e587453fe70433ece8877bc50f68bc0315ce7",
}


@pytest.mark.parametrize("name, seed", sorted(PINNED_DRAWS))
def test_checked_in_space_draws_are_pinned(name, seed):
    net, train = load_run_config(os.path.join(CONFIGS, "cora_desk.json"))
    trials = sample_trials(net, train, _space(name), 3, seed)
    blob = json.dumps([[params, train_cfg.seed] for params, _, train_cfg in trials])
    assert hashlib.sha256(blob.encode()).hexdigest() == PINNED_DRAWS[name, seed]


# every file in configs/ but the run configs, which hold network and train sections
SPACE_FILES = sorted(name for name in os.listdir(CONFIGS)
                     if name.endswith(".json") and not {"network", "train"} & set(_space(name)))


def test_configs_hold_the_spaces_the_docs_use():
    assert {"search_node.json", "search_kg.json", "sweep_hops.json", "ablate_node.json"} <= set(SPACE_FILES)


@pytest.mark.parametrize("name", SPACE_FILES)
def test_every_checked_in_space_samples(name):
    space = _space(name)
    validate_space(space)
    net, train = load_run_config(os.path.join(CONFIGS, "cora_desk.json"))
    trials = sample_trials(net, train, space, 2, 0)
    assert all(set(params) == set(space) for params, _, _ in trials)


def test_grid_enumerates_points_and_shares_one_draw_stream():
    sampled = {"lr": {"kind": "range", "low": 1e-3, "high": 5e-2, "scale": "log"},
               "hops": {"kind": "choice", "values": [1, 2, 3]}}
    grid = {"heads": {"kind": "grid", "values": [4, 1]},
            "alpha": {"kind": "grid", "values": [0.5, 0.1, 0.2]}}
    trials = sample_trials(NET, TRAIN, {**sampled, **grid}, 2, 3)
    # names sorted, values in the order given, ``trials`` draws at each point
    points = [(alpha, heads) for alpha in (0.5, 0.1, 0.2) for heads in (4, 1) for _ in range(2)]
    assert [(p["alpha"], p["heads"]) for p, _, _ in trials] == points
    assert [(net.alpha, net.heads) for _, net, _ in trials] == points
    # the other entries are drawn as if the grid were not there
    alone = sample_trials(NET, TRAIN, sampled, len(trials), 3)
    assert [{k: p[k] for k in sampled} for p, _, _ in trials] == [p for p, _, _ in alone]
    assert all(list(p) == sorted(p) for p, _, _ in trials)


def test_seed_entry_overrides_the_run_seed():
    assert [t.seed for _, _, t in sample_trials(NET, TRAIN, {}, 2, 5)] == [5, 5]
    fixed = {"seed": {"kind": "fixed", "value": 3}}
    assert [t.seed for _, _, t in sample_trials(NET, TRAIN, fixed, 2, 5)] == [3, 3]
    grid = {"seed": {"kind": "grid", "values": [2, 0, 1]}}
    assert [t.seed for _, _, t in sample_trials(NET, TRAIN, grid, 1, 5)] == [2, 0, 1]
    with pytest.raises(ValueError, match="seed must be an integer"):
        sample_trials(NET, TRAIN, {"seed": {"kind": "range", "low": 0, "high": 9}}, 1, 5)


def test_choice_samples_stay_in_set(rng):
    space = {"hops": {"kind": "choice", "values": list(range(2, 11))}}
    seen = {sample_space(space, rng)["hops"] for _ in range(200)}
    assert seen <= set(range(2, 11))
    assert len(seen) > 4


def test_log_range_samples_within_bounds(rng):
    space = {"lr": {"kind": "range", "low": 5e-5, "high": 1e-3, "scale": "log"}}
    samples = [sample_space(space, rng)["lr"] for _ in range(300)]
    assert all(5e-5 <= v <= 1e-3 for v in samples)
    # log-uniform: roughly half the mass below the geometric midpoint
    mid = np.sqrt(5e-5 * 1e-3)
    frac = np.mean([v < mid for v in samples])
    assert 0.35 < frac < 0.65


def test_linear_range_within_bounds(rng):
    space = {"alpha": {"kind": "range", "low": 0.05, "high": 0.6}}
    assert all(0.05 <= sample_space(space, rng)["alpha"] <= 0.6 for _ in range(100))


def test_all_fixed_space_gives_identical_trials():
    ds = separable_node_dataset(seed=0, per_class=6)
    space = {
        "lr": {"kind": "fixed", "value": 0.02},
        "hops": {"kind": "fixed", "value": 2},
    }
    rows = run_trials(ds, sample_trials(NET, TRAIN, space, 3, 5))
    assert len(rows) == 3
    assert len({r["val_metric"] for r in rows}) == 1
    assert len({r["test_metric"] for r in rows}) == 1
    assert all(r["params"] == {"lr": 0.02, "hops": 2} for r in rows)


def test_run_trials_keeps_trial_order_and_is_reproducible():
    ds = separable_node_dataset(seed=0, per_class=6)
    space = {
        "lr": {"kind": "range", "low": 1e-3, "high": 5e-2, "scale": "log"},
        "hops": {"kind": "choice", "values": [1, 2, 3]},
    }
    trials = sample_trials(NET, TRAIN, space, 4, 11)
    rows1 = run_trials(ds, trials)
    rows2 = run_trials(ds, sample_trials(NET, TRAIN, space, 4, 11))
    assert [r["trial"] for r in rows1] == [0, 1, 2, 3]
    assert [r["params"] for r in rows1] == [params for params, _, _ in trials]
    assert _outcomes(rows1) == _outcomes(rows2)


def test_search_validates_inputs():
    ds = separable_node_dataset(seed=0, per_class=6)
    with pytest.raises(ValueError):
        run_trials(ds, sample_trials(NET, TRAIN, {}, 0, 1))


def test_parallel_jobs_match_sequential():
    ds = separable_node_dataset(seed=0, per_class=6)
    space = {
        "lr": {"kind": "range", "low": 5e-3, "high": 5e-2, "scale": "log"},
        "hops": {"kind": "choice", "values": [1, 2]},
    }
    seq = run_trials(ds, sample_trials(NET, TRAIN, space, 3, 9), jobs=1)
    par = run_trials(ds, sample_trials(NET, TRAIN, space, 3, 9), jobs=2)
    assert _outcomes(seq) == _outcomes(par)


def test_parallel_kg_jobs_match_sequential_after_ranking(tmp_path):
    # the sequential trials rank in this process before the parallel ones
    # fork from it; a ranking pool left behind would hang the forked trials
    kg = compositional_kg(str(tmp_path / "kg"))
    space = {"lr": {"kind": "choice", "values": [0.01, 0.02]}}
    train = replace(TRAIN, epochs=2, window=2)
    seq = run_trials(kg, sample_trials(NET, train, space, 2, 9), jobs=1)
    par = run_trials(kg, sample_trials(NET, train, space, 2, 9), jobs=2)
    assert _outcomes(seq) == _outcomes(par)

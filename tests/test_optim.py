import numpy as np
import pytest
from numpy.testing import assert_allclose

from magna.optim import (
    Adam,
    GradientError,
    ParamStore,
    load_checkpoint,
    save_checkpoint,
)
from magna.tape import Tensor

from helpers import peak_traced_bytes


def scalar_store(value=0.0):
    store = ParamStore()
    store.add("p", Tensor(np.array([[value]]), requires_grad=True))
    return store


def test_zero_gradient_leaves_parameters_unchanged():
    store = scalar_store(0.7)
    opt = Adam(store, lr=0.1, weight_decay=0.0)
    store["p"].grad = np.zeros((1, 1))
    opt.step()
    assert_allclose(store["p"].data, [[0.7]])


def test_step_is_the_adam_formula_in_two_buffers(rng):
    n, d, lr, wd = 20_000, 16, 0.01, 0.1
    store = ParamStore()
    w = store.add("w", Tensor(rng.normal(size=(n, d)), requires_grad=True))
    opt = Adam(store, lr=lr, weight_decay=wd)
    ref, m, v = w.data.copy(), np.zeros((n, d)), np.zeros((n, d))
    for t in (1, 2):
        g = w.grad = rng.normal(size=(n, d))
        peak = peak_traced_bytes(opt.step)
        ref *= 1.0 - lr * wd
        m = m * Adam.BETA1 + (1.0 - Adam.BETA1) * g
        v = v * Adam.BETA2 + (1.0 - Adam.BETA2) * (g * g)
        bc1, bc2 = 1.0 - Adam.BETA1 ** t, 1.0 - Adam.BETA2 ** t
        ref -= lr * (m / bc1) / (np.sqrt(v / bc2) + Adam.EPS)
        assert np.array_equal(w.data, ref)
        # the update and its denominator, beside the finiteness mask; the
        # one-expression update held three arrays of the parameter's size
        assert peak < 2.5 * ref.nbytes, peak / ref.nbytes


def test_first_step_magnitude():
    # m_hat = v_hat = 1 at t=1, so the step is lr / (1 + eps)
    store = scalar_store(0.0)
    opt = Adam(store, lr=0.1)
    store["p"].grad = np.ones((1, 1))
    opt.step()
    assert store["p"].data[0, 0] == pytest.approx(-0.1 * 1.0 / (1.0 + 1e-8))
    assert store["p"].data[0, 0] == pytest.approx(-0.1, abs=1e-8)


def test_decoupled_weight_decay_shrinks_before_update():
    store = scalar_store(1.0)
    opt = Adam(store, lr=0.1, weight_decay=0.1)
    store["p"].grad = np.zeros((1, 1))
    opt.step()
    assert store["p"].data[0, 0] == pytest.approx(0.99)


def test_decay_never_touches_moments():
    store = scalar_store(1.0)
    opt = Adam(store, lr=0.1, weight_decay=0.5)
    store["p"].grad = np.zeros((1, 1))
    for _ in range(3):
        opt.step()
    assert_allclose(opt._m["p"], 0.0)
    assert_allclose(opt._v["p"], 0.0)


def test_non_finite_gradient_aborts_with_name():
    store = ParamStore()
    store.add("weights.w1", Tensor(np.zeros((2, 2)), requires_grad=True))
    opt = Adam(store, lr=0.1)
    store["weights.w1"].grad = np.array([[np.nan, 0.0], [0.0, 0.0]])
    before = store["weights.w1"].data.copy()
    with pytest.raises(GradientError, match="weights.w1"):
        opt.step()
    assert_allclose(store["weights.w1"].data, before)


def test_adam_matches_reference_sequence(rng):
    # independent re-implementation of the textbook update as oracle
    store = ParamStore()
    p = store.add("p", Tensor(rng.normal(size=(3, 2)), requires_grad=True))
    opt = Adam(store, lr=0.05, weight_decay=0.01)
    ref = p.data.copy()
    m = np.zeros_like(ref)
    v = np.zeros_like(ref)
    for t in range(1, 6):
        g = rng.normal(size=ref.shape)
        p.grad = g.copy()
        opt.step()
        ref *= 1.0 - 0.05 * 0.01
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1 - 0.9**t)
        vhat = v / (1 - 0.999**t)
        ref -= 0.05 * mhat / (np.sqrt(vhat) + 1e-8)
        assert_allclose(p.data, ref, atol=1e-14)


def test_glorot_bounds(rng):
    store = ParamStore()
    w = store.glorot("w", (40, 60), rng)
    limit = np.sqrt(6.0 / 100.0)
    assert np.all(np.abs(w.data) <= limit)
    assert w.data.std() > 0


def test_duplicate_name_rejected(rng):
    store = ParamStore()
    store.zeros("w", (1, 1))
    with pytest.raises(ValueError, match="duplicate"):
        store.zeros("w", (1, 1))


def test_snapshot_restore_roundtrip(rng):
    store = ParamStore()
    store.glorot("a", (2, 3), rng)
    store.glorot("b", (1, 4), rng)
    snap = store.snapshot()
    store["a"].data += 1.0
    store.restore(snap)
    assert_allclose(store["a"].data, snap["a"])
    with pytest.raises(KeyError):
        store.restore({"a": snap["a"]})


def test_checkpoint_roundtrip_is_bit_exact(tmp_path, rng):
    store = ParamStore()
    store.glorot("layer.w", (3, 5), rng)
    store.add("odd", Tensor(np.array([[np.pi, 1e-310]]), requires_grad=True))
    path = str(tmp_path / "ckpt.json")
    save_checkpoint(path, store, {"task": "node", "network": {"dim": 5}})
    values, config = load_checkpoint(path)
    assert config["task"] == "node"
    for name, p in store.items():
        assert values[name].dtype == np.float64
        assert np.array_equal(values[name], p.data)


def test_checkpoint_version_guard(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        fh.write('{"format_version": 99, "params": {}}')
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)

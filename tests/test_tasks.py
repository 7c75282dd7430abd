import os
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from magna import tasks
from magna.graph import kg_queries
from magna.tape import NonFiniteError, Tensor
from magna.tasks import (
    cross_entropy_loss,
    kg_filtered_ranks,
    kl_label_smoothing_loss,
    ranking_metrics,
    smoothed_targets,
)

from helpers import (
    brute_force_rank,
    brute_force_ranks,
    check_grad,
    compositional_kg,
    distmult_chain,
    filtered_rank,
    kl_scores,
    known_set,
    mul,
    peak_traced_bytes,
    per_query_ranks,
)


def tail_arrays(*tails):
    """Tail sets as the int arrays ``smoothed_targets`` takes."""
    return [np.array(t, dtype=np.int64) for t in tails]


# ---------------------------------------------------------------------------
# classification loss


def test_uniform_logits_loss_is_log_num_classes():
    logits = Tensor(np.zeros((3, 7)))
    loss, _ = cross_entropy_loss(logits, np.array([0, 3, 6]), np.ones(3, dtype=bool))
    assert float(loss.data) == pytest.approx(np.log(7.0), abs=1e-12)
    assert float(loss.data) == pytest.approx(1.9459, abs=1e-4)


def test_confident_one_hot_logits():
    labels = np.array([0, 1])
    logits = np.full((2, 2), -0.0)
    logits[0, 0] = logits[1, 1] = 1e3
    loss, acc = cross_entropy_loss(Tensor(logits), labels, np.ones(2, dtype=bool))
    assert float(loss.data) == pytest.approx(0.0, abs=1e-12)
    assert acc == 1.0


def test_accuracy_counts_argmax_matches():
    logits = Tensor(np.array([[2.0, 0.0], [0.0, 2.0]]))
    _, acc = cross_entropy_loss(logits, np.array([0, 0]), np.ones(2, dtype=bool))
    assert acc == 0.5


def test_argmax_tie_breaks_to_lowest_class():
    logits = Tensor(np.array([[1.0, 1.0, 0.0]]))
    _, acc = cross_entropy_loss(logits, np.array([0]), np.ones(1, dtype=bool))
    assert acc == 1.0


def test_empty_mask_rejected():
    with pytest.raises(ValueError, match="empty mask"):
        cross_entropy_loss(Tensor(np.zeros((2, 2))), np.zeros(2, dtype=int), np.zeros(2, dtype=bool))


def test_cross_entropy_gradient(rng):
    logits = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    labels = rng.integers(0, 4, size=5)
    mask = np.array([True, False, True, True, False])
    check_grad(lambda: cross_entropy_loss(logits, labels, mask)[0], {"logits": logits})


# ---------------------------------------------------------------------------
# DistMult scores, read from the KL loss that computes them


def test_distmult_all_ones():
    s = kl_scores(Tensor(np.ones((1, 3))), Tensor(np.ones((1, 3))), [0], [0])
    assert s[0, 0] == pytest.approx(3.0)


def test_distmult_zero_relation_zeroes_scores(rng):
    s = kl_scores(Tensor(rng.normal(size=(5, 4))), Tensor(np.zeros((2, 4))), [0, 3], [1, 0])
    assert_allclose(s, np.zeros((2, 5)))


def test_distmult_hand_example():
    s = kl_scores(Tensor([[1.0, 2.0], [1.0, 1.0], [3.0, 0.0]]), Tensor([[1.0, 0.0]]), [0], [0])
    assert_allclose(s, [[1.0, 1.0, 3.0]])


def test_distmult_rejects_mismatched_inputs():
    ents, relw = Tensor(np.ones((4, 3))), Tensor(np.ones((2, 3)))
    with pytest.raises(ValueError, match="kl_label_smoothing_loss"):
        kl_label_smoothing_loss(ents, relw, [0, 1], [0], np.ones((2, 4)))
    # a width-1 relation table would broadcast in the forward
    with pytest.raises(ValueError, match="kl_label_smoothing_loss"):
        kl_label_smoothing_loss(ents, Tensor(np.ones((2, 1))), [0], [0], np.ones((1, 4)))
    # one target row per query, one column per entity
    with pytest.raises(ValueError, match="kl_label_smoothing_loss: targets"):
        kl_label_smoothing_loss(ents, relw, [0], [0], np.ones((1, 5)))


@pytest.mark.parametrize("heads, rels, message", [
    ([-1], [0], "head id out of range"),  # would score entity N-1
    ([4], [0], "head id out of range"),
    ([0], [-2], "relation id out of range"),  # would read relation 0
    ([0], [2], "relation id out of range"),
])
def test_distmult_rejects_ids_out_of_range(heads, rels, message):
    ents, relw = Tensor(np.ones((4, 3))), Tensor(np.ones((2, 3)))
    with pytest.raises(ValueError, match=message):
        kl_label_smoothing_loss(ents, relw, heads, rels, np.full((1, 4), 0.25))


def test_distmult_rejects_non_finite_scores():
    ents = Tensor(np.array([[np.inf, 1.0], [1.0, 1.0]]))
    with pytest.raises(NonFiniteError, match="kl_smoothed"):
        kl_label_smoothing_loss(ents, Tensor(np.ones((1, 2))), [0], [0], np.full((1, 2), 0.5))


def test_distmult_head_tail_symmetry(rng):
    e = rng.normal(size=(6, 5))
    w = rng.normal(size=(1, 5))
    ent, relw = Tensor(e), Tensor(w)
    for h in range(6):
        for t in range(6):
            # the bilinear form itself is exactly symmetric (commutative products)
            exact_ht = ((e[h] * e[t]) * w[0]).sum()
            exact_th = ((e[t] * e[h]) * w[0]).sum()
            assert exact_ht == exact_th
            # the 1-N matrix-product evaluation rounds per direction; ulp-level only
            s_ht = kl_scores(ent, relw, [h], [0])[0, t]
            s_th = kl_scores(ent, relw, [t], [0])[0, h]
            assert s_ht == pytest.approx(s_th, rel=1e-12, abs=1e-12)


def test_distmult_gradients(rng):
    relw = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    ents = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    targets = smoothed_targets(tail_arrays([0], [2, 3]), 4, 0.1)
    check_grad(
        lambda: kl_label_smoothing_loss(ents, relw, [1, 3], [1, 0], targets),
        {"relw": relw, "ents": ents},
    )


# ---------------------------------------------------------------------------
# KL loss with label smoothing


def test_kl_no_smoothing_uniform_logits_is_log_n(rng):
    # a zero relation scores every entity 0
    targets = smoothed_targets(tail_arrays([2]), 5, 0.0)
    loss = kl_label_smoothing_loss(Tensor(rng.normal(size=(5, 3))), Tensor(np.zeros((1, 3))), [1], [0], targets)
    assert float(loss.data) == pytest.approx(np.log(5.0), abs=1e-12)


def test_kl_spike_on_true_tail_is_near_zero():
    # one-hot entity rows score 1e3 on the head itself and 0 elsewhere
    targets = smoothed_targets(tail_arrays([4]), 6, 0.0)
    loss = kl_label_smoothing_loss(Tensor(np.eye(6)), Tensor(np.full((1, 6), 1e3)), [4], [0], targets)
    assert_allclose(kl_scores(Tensor(np.eye(6)), Tensor(np.full((1, 6), 1e3)), [4], [0]),
                    [[0.0, 0.0, 0.0, 0.0, 1e3, 0.0]])
    assert float(loss.data) == pytest.approx(0.0, abs=1e-12)


def test_kl_smoothed_two_of_four_hand_value(rng):
    targets = smoothed_targets(tail_arrays([0, 1]), 4, 0.1)
    assert_allclose(targets, [[0.475, 0.475, 0.025, 0.025]])
    loss = kl_label_smoothing_loss(Tensor(rng.normal(size=(4, 2))), Tensor(np.zeros((1, 2))), [0], [0], targets)
    expected = sum(t * np.log(t / 0.25) for t in (0.475, 0.475, 0.025, 0.025))
    assert float(loss.data) == pytest.approx(expected, abs=1e-12)


def test_kl_zero_iff_distributions_match():
    targets = smoothed_targets(tail_arrays([1, 3]), 4, 0.2)
    # one-dimensional entities 0, 1, 0, 1 under the relation log(t1 / t0)
    # score log(targets) up to a shift, from the head entity 1
    ents = Tensor(np.array([[0.0], [1.0], [0.0], [1.0]]))
    relw = Tensor(np.array([[np.log(targets[0, 1] / targets[0, 0])], [0.0]]))
    loss = kl_label_smoothing_loss(ents, relw, [1], [0], targets)
    assert 0.0 <= float(loss.data) <= 1e-9
    other = kl_label_smoothing_loss(ents, relw, [1], [1], targets)
    assert float(other.data) > 1e-3


def test_kl_nonnegative_random(rng):
    for _ in range(20):
        targets = smoothed_targets([rng.choice(8, size=2, replace=False)], 8, float(rng.uniform(0, 0.5)))
        loss = kl_label_smoothing_loss(Tensor(rng.normal(size=(8, 3))), Tensor(rng.normal(size=(2, 3))),
                                       [int(rng.integers(8))], [int(rng.integers(2))], targets)
        assert float(loss.data) >= 0.0


def _kl_loss_with_fresh_arrays(logits: Tensor, targets: np.ndarray) -> Tensor:
    """The KL loss with every step in a fresh array, as it was before
    ``kl_label_smoothing_loss`` ran in place."""
    z = logits.data
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    s = e.sum(axis=1, keepdims=True)
    logp, p = (z - m) - np.log(s), e / s
    with np.errstate(divide="ignore", invalid="ignore"):
        entropy = np.where(targets > 0, targets * np.log(targets), 0.0)
    loss_val = float((entropy - targets * logp).sum(axis=1).mean())

    def backward(g):
        logits.accumulate((float(g) / targets.shape[0]) * (p - targets))

    return Tensor.from_op(np.asarray(loss_val), (logits,), "kl_smoothed", backward)


def _kl_queries(rng, shape, dim):
    """Entity and relation tables and queries whose KL loss is ``shape``
    (queries x entities)."""
    rows, cols = shape
    entities = rng.normal(size=(cols, dim))
    relations = rng.normal(size=(5, dim))
    return entities, relations, rng.integers(cols, size=rows), rng.integers(5, size=rows)


def _kl_row_blocks(shape) -> list[int]:
    """Rows in each row block that ``kl_label_smoothing_loss`` takes at ``shape``."""
    rows, cols = shape
    block = max(1, tasks._KL_BLOCK_BYTES // (8 * cols))
    return [min(block, rows - lo) for lo in range(0, rows, block)]


# one block; kg_train's batch in whole blocks; one-row blocks; several
# blocks ending on a short one
KL_SHAPES = [(7, 50), (256, 4_094), (33, 20_000), (100, 4_094)]


def test_kl_shapes_split_into_row_blocks():
    blocks = [_kl_row_blocks(shape) for shape in KL_SHAPES]
    assert len(blocks[0]) == 1
    assert all(len(b) > 2 for b in blocks[1:])
    assert any(b[-1] < b[0] for b in blocks)


@pytest.mark.parametrize("eps", [0.1, 0.0])
def test_kl_in_place_matches_fresh_array_formula_bitwise(rng, eps):
    for rows, cols in KL_SHAPES:
        tails = [rng.choice(cols, size=int(rng.integers(1, 4)), replace=False) for _ in range(rows)]
        targets = smoothed_targets(tails, cols, eps)
        assert (targets == 0).any() == (eps == 0.0)  # eps = 0 leaves zeros for the log to skip
        original = targets.copy()
        entities, relations, heads, rels = _kl_queries(rng, targets.shape, 6)
        results = []
        for fused in (True, False):
            ents, relw = Tensor(entities, requires_grad=True), Tensor(relations, requires_grad=True)
            if fused:
                loss = kl_label_smoothing_loss(ents, relw, heads, rels, targets)
            else:
                loss = _kl_loss_with_fresh_arrays(distmult_chain(ents, relw, heads, rels), targets)
            assert np.array_equal(targets, original)
            # an upstream gradient other than one, so the adjoint's scaling shows
            mul(loss, Tensor(np.asarray(0.7))).backward()
            assert np.array_equal(targets, original)
            results.append((loss.data, ents.grad, relw.grad))
        for got, want in zip(*results):
            assert np.array_equal(got, want), (rows, cols)


def test_kl_loss_peak_memory_is_one_buffer_plus_row_block_scratch(rng):
    targets = smoothed_targets([np.array([i, 3 * i]) for i in range(1, 9)], 20_000, 0.1)
    assert len(_kl_row_blocks(targets.shape)) > 1
    entities, relations, heads, rels = _kl_queries(rng, targets.shape, 2)

    def forward_backward(fused):
        ents, relw = Tensor(entities, requires_grad=True), Tensor(relations, requires_grad=True)
        if fused:
            loss = kl_label_smoothing_loss(ents, relw, heads, rels, targets)
        else:
            loss = _kl_loss_with_fresh_arrays(distmult_chain(ents, relw, heads, rels), targets)
        loss.backward()

    in_place = peak_traced_bytes(lambda: forward_backward(True))
    fresh = peak_traced_bytes(lambda: forward_backward(False))
    # the scores, which the softmax and then the gradient overwrite, plus
    # one row block's log-softmax, terms and `targets > 0` mask; the chain
    # and the fresh-array formula hold six arrays of the full size at their
    # peak
    assert in_place < 1.5 * targets.nbytes
    assert fresh > 5 * targets.nbytes


def test_kl_loss_backward_writes_the_score_gradient_into_its_buffer(rng):
    targets = smoothed_targets([np.array([i, 3 * i]) for i in range(1, 65)], 20_000, 0.1)
    entities, relations, heads, rels = _kl_queries(rng, targets.shape, 2)
    ents = Tensor(entities, requires_grad=True)
    loss = kl_label_smoothing_loss(ents, Tensor(relations), heads, rels, targets)
    # a fresh score gradient would allocate one more batch x entities array
    assert peak_traced_bytes(loss.backward) < 0.1 * targets.nbytes
    assert ents.grad.shape == entities.shape


def test_tail_arrays_in_any_order_give_the_set_targets():
    want = smoothed_targets(tail_arrays([2, 7, 30], [4]), 40, 0.1)
    got = smoothed_targets(tail_arrays([30, 2, 7], [4]), 40, 0.1)
    assert np.array_equal(got, want)
    assert np.array_equal(np.flatnonzero(want[0] > 0.1 / 40), [2, 7, 30])


def test_empty_tail_set_rejected():
    with pytest.raises(ValueError, match="empty tail set"):
        smoothed_targets(tail_arrays([]), 4, 0.1)


def test_smoothing_bounds():
    with pytest.raises(ValueError):
        smoothed_targets(tail_arrays([0]), 4, 1.0)


# ---------------------------------------------------------------------------
# filtered ranking


def test_unique_top_score_ranks_first():
    scores = np.arange(10.0)
    assert filtered_rank(scores, 9, []) == 1.0


def test_tied_top_scores_share_rank():
    scores = np.array([5.0, 5.0, 1.0, 0.0])
    assert filtered_rank(scores, 0, []) == 1.5
    assert filtered_rank(scores, 1, []) == 1.5


def test_filtering_removes_known_answers():
    scores = np.array([9.0, 8.0, 7.0, 1.0])
    # entities 0 and 1 are known-true answers for this query
    assert filtered_rank(scores, 2, [0, 1]) == 1.0
    # the target itself may sit in the filter set without being excluded
    assert filtered_rank(scores, 2, [0, 1, 2]) == 1.0


@given(st.integers(2, 40), st.integers(0, 10_000), st.booleans())
def test_rank_matches_brute_force(n, seed, quantize):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=n)
    if quantize:  # force ties
        scores = np.round(scores)
    target = int(rng.integers(n))
    known = set(int(x) for x in rng.choice(n, size=min(n // 2, 5), replace=False))
    assert filtered_rank(scores, target, list(known)) == brute_force_rank(scores, target, known)


def test_kg_ranks_match_brute_force_oracle(rng, tmp_path):
    kg = compositional_kg(str(tmp_path / "kg"))
    n_rel = len(kg.relation_names)
    entity = rng.normal(size=(kg.num_entities, 6))
    relw = rng.normal(size=(kg.num_relations, 6))
    ranks = kg_filtered_ranks(entity, relw, kg, kg.valid)
    assert ranks.shape == (2 * len(kg.valid),)
    for i, (h, r, t) in enumerate(kg.valid):
        h, r, t = int(h), int(r), int(t)
        tail_scores = (entity[h] * relw[r]) @ entity.T
        assert ranks[2 * i] == brute_force_rank(tail_scores, t, known_set(kg, h, r))
        head_scores = (entity[t] * relw[r + n_rel]) @ entity.T
        assert ranks[2 * i + 1] == brute_force_rank(head_scores, h, known_set(kg, t, r + n_rel))


@pytest.fixture
def quantized_kg(rng, tmp_path):
    """The compositional toy KG with integer-valued embeddings, so that many
    scores tie exactly."""
    kg = compositional_kg(str(tmp_path / "kg"))
    entity = np.round(rng.normal(size=(kg.num_entities, 4)))
    relw = np.round(rng.normal(size=(kg.num_relations, 4)))
    return kg, entity, relw


@pytest.mark.parametrize("block_rows", [None, 1, 3])
def test_kg_ranks_equal_per_query_ranks_under_ties(quantized_kg, block_rows, monkeypatch):
    kg, entity, relw = quantized_kg
    if block_rows is not None:
        monkeypatch.setattr(tasks, "_RANK_BLOCK_BYTES", 8 * kg.num_entities * block_rows)
    triples = np.concatenate([kg.train, kg.valid, kg.test])
    ranks = kg_filtered_ranks(entity, relw, kg, triples)
    assert np.array_equal(ranks, per_query_ranks(entity, relw, kg, triples))
    # per_query_ranks shares the ranker's tie-and-filter rule; this does not
    assert np.array_equal(ranks, brute_force_ranks(entity, relw, kg, triples))
    assert np.any(ranks % 1 == 0.5)  # ties were split
    assert any(len(known_set(kg, int(h), int(r))) > 1 for h, r, _ in triples)  # filtering ran


def test_kg_ranks_without_other_known_answers(quantized_kg):
    kg, entity, relw = quantized_kg
    n_rel = len(kg.relation_names)
    ent, rel = kg.entity_names.index, kg.relation_names.index
    # the held-out triples are the only answers to their queries, and the
    # made-up triple c0 -r1-> a0 has neither of its queries in the index
    assert all(known_set(kg, h, r) == {t} for h, r, t in kg.valid.tolist())
    made_up = np.array([[ent("c0"), rel("r1"), ent("a0")]])
    assert known_set(kg, ent("c0"), rel("r1")) == set()
    assert known_set(kg, ent("a0"), rel("r1") + n_rel) == set()
    triples = np.concatenate([kg.valid, made_up])
    ranks = kg_filtered_ranks(entity, relw, kg, triples)
    assert np.array_equal(ranks, per_query_ranks(entity, relw, kg, triples))
    for i, (h, r, t) in enumerate(triples.tolist()):
        assert ranks[2 * i] == brute_force_rank((entity[h] * relw[r]) @ entity.T, t, set())
        assert ranks[2 * i + 1] == brute_force_rank((entity[t] * relw[r + n_rel]) @ entity.T, h, set())


@pytest.mark.parametrize("block_keys", [None, 1, 3])
def test_kg_ranks_of_queries_sharing_a_key(rng, tmp_path, block_keys, monkeypatch):
    # four bridges give the key (a_i, r1) four queries, more than a block of
    # one or three keys holds
    kg = compositional_kg(str(tmp_path / "kg"), bridges=4)
    if block_keys is not None:
        monkeypatch.setattr(tasks, "_RANK_BLOCK_BYTES", 8 * kg.num_entities * block_keys)
    ent, rel = kg.entity_names.index, kg.relation_names.index
    entity = rng.normal(size=(kg.num_entities, 4))
    relw = rng.normal(size=(kg.num_relations, 4))
    # equal rows score exactly the same under every key: b0_0 and b0_1 are
    # both known tails of (a0, r1); a0 and a1 are unknown tails of (c0, r1)
    entity[ent("b0_1")] = entity[ent("b0_0")]
    entity[ent("a1")] = entity[ent("a0")]
    made_up = np.array([[ent("c0"), rel("r1"), ent("a0")], [ent("c0"), rel("r1"), ent("a1")]])
    assert known_set(kg, ent("c0"), rel("r1")) == set()
    twice = np.repeat(kg.valid[:1], 2, axis=0)
    triples = np.concatenate([kg.train, made_up, twice])
    assert sum(h == ent("a0") and r == rel("r1") for h, r, _ in triples.tolist()) == 4

    ranks = kg_filtered_ranks(entity, relw, kg, triples)
    assert np.array_equal(ranks, per_query_ranks(entity, relw, kg, triples))
    for rank, (e, q, target) in zip(ranks, kg_queries(triples, len(kg.relation_names)).tolist()):
        known = known_set(kg, e, q)
        assert rank == brute_force_rank((entity[e] * relw[q]) @ entity.T, target, known)
    # each tied known tail filters the other, so neither rank is split
    tied = [2 * i for i, (h, r, t) in enumerate(triples.tolist())
            if (h, r) == (ent("a0"), rel("r1")) and t in (ent("b0_0"), ent("b0_1"))]
    assert len(tied) == 2 and ranks[tied[0]] == ranks[tied[1]] and ranks[tied[0]] % 1 == 0
    # neither made-up target filters the other: each ties with it at half weight
    made_up_ranks = ranks[2 * len(kg.train):][:4:2]
    assert made_up_ranks[0] == made_up_ranks[1] and made_up_ranks[0] % 1 == 0.5
    assert np.array_equal(ranks[-4:-2], ranks[-2:])


@pytest.mark.parametrize("relation", [-1, 3])
def test_kg_ranks_reject_relation_out_of_range(quantized_kg, relation):
    # the key folds the relation into one integer, so a bad id must not
    # alias another key's row
    kg, entity, relw = quantized_kg
    assert len(kg.relation_names) == 3
    with pytest.raises(ValueError, match="relation id out of range"):
        kg_filtered_ranks(entity, relw, kg, np.array([[0, relation, 1]]))


def test_kg_ranks_of_empty_split(quantized_kg):
    kg, entity, relw = quantized_kg
    ranks = kg_filtered_ranks(entity, relw, kg, np.zeros((0, 3), dtype=np.int64))
    assert ranks.shape == (0,)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("block_keys", [None, 1])
def test_kg_ranks_are_the_same_at_any_worker_count(quantized_kg, workers, block_keys, monkeypatch):
    kg, entity, relw = quantized_kg
    monkeypatch.setattr(tasks, "_rank_workers", lambda: workers)
    if block_keys is not None:
        monkeypatch.setattr(tasks, "_RANK_BLOCK_BYTES", 8 * kg.num_entities * block_keys)
    else:
        # one block holds every key, so with 2 or 3 workers some get none
        assert tasks._RANK_BLOCK_BYTES // (3 * 8 * kg.num_entities) >= kg.num_relations * kg.num_entities
    triples = np.concatenate([kg.train, kg.valid, kg.test])
    threads = threading.active_count()
    ranks = kg_filtered_ranks(entity, relw, kg, triples)
    empty = kg_filtered_ranks(entity, relw, kg, np.zeros((0, 3), dtype=np.int64))
    assert threading.active_count() == threads  # no worker outlives its call
    assert np.array_equal(ranks, per_query_ranks(entity, relw, kg, triples))
    assert np.array_equal(ranks, brute_force_ranks(entity, relw, kg, triples))
    assert empty.shape == (0,)


@pytest.mark.parametrize("blas_env, parallel", [
    ({"OPENBLAS_NUM_THREADS": "1"}, True),
    ({"OMP_NUM_THREADS": "1"}, True),
    ({"MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, True),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
    ({}, False),  # BLAS then starts a thread per CPU
])
def test_rank_workers_are_the_cpus_when_blas_runs_on_one_thread(blas_env, parallel, monkeypatch):
    for var in tasks._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in blas_env.items():
        monkeypatch.setenv(var, value)
    share = tasks._RANK_BLOCK_BYTES // tasks._RANK_WORKER_BYTES
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
        assert tasks._rank_workers() == (min(cpus, share) if parallel else 1)
    # on a many-core host each worker still keeps its share of the budget
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert tasks._rank_workers() == (share if parallel else 1)
    monkeypatch.setattr(tasks, "_RANK_BLOCK_BYTES", tasks._RANK_WORKER_BYTES - 1)
    assert tasks._rank_workers() == 1


def test_kg_rank_memory_grows_with_block_not_queries_times_entities(rng, tmp_path, monkeypatch):
    # a larger instance of the toy KG, so that one score row (8 bytes per
    # entity) outweighs the ranker's per-query index arrays
    kg = compositional_kg(str(tmp_path / "kg"), groups=100, held_out_valid=range(10))
    entity = rng.normal(size=(kg.num_entities, 4))
    relw = rng.normal(size=(kg.num_relations, 4))
    monkeypatch.setattr(tasks, "_RANK_BLOCK_BYTES", 8 * kg.num_entities * 4)

    once = peak_traced_bytes(lambda: kg_filtered_ranks(entity, relw, kg, kg.valid))
    four_times = peak_traced_bytes(lambda: kg_filtered_ranks(entity, relw, kg, np.tile(kg.valid, (4, 1))))
    extra_queries = 2 * 3 * len(kg.valid)
    # holding every score row would add 8 * num_entities bytes per query
    assert four_times - once < extra_queries * 8 * kg.num_entities / 4


def test_kg_rank_memory_grows_with_block_not_keys_times_entities(rng, tmp_path, monkeypatch):
    # queries with distinct keys each need their own score row, unlike the
    # repeated queries above
    kg = compositional_kg(str(tmp_path / "kg"), groups=100, held_out_valid=range(10))
    entity = rng.normal(size=(kg.num_entities, 4))
    relw = rng.normal(size=(kg.num_relations, 4))
    monkeypatch.setattr(tasks, "_RANK_BLOCK_BYTES", 8 * kg.num_entities * 4)

    def distinct_keys(triples):
        return len(np.unique(kg_queries(triples, len(kg.relation_names))[:, :2], axis=0))

    few = peak_traced_bytes(lambda: kg_filtered_ranks(entity, relw, kg, kg.valid))
    many = peak_traced_bytes(lambda: kg_filtered_ranks(entity, relw, kg, kg.train))
    extra_keys = distinct_keys(kg.train) - distinct_keys(kg.valid)
    assert extra_keys > 500
    # holding every key's score row would add 8 * num_entities bytes per key
    assert many - few < extra_keys * 8 * kg.num_entities / 4


def test_kg_rank_memory_on_two_workers_grows_with_block_not_keys(rng, tmp_path, monkeypatch):
    # the test above sets a budget too small for a second worker's share
    monkeypatch.setattr(tasks, "_rank_workers", lambda: 2)
    test_kg_rank_memory_grows_with_block_not_keys_times_entities(rng, tmp_path, monkeypatch)


# ---------------------------------------------------------------------------
# ranking metrics


def test_perfect_ranks():
    m = ranking_metrics([1, 1, 1])
    assert (m.mr, m.mrr, m.hits1) == (1.0, 1.0, 1.0)


def test_rank_two_metrics():
    m = ranking_metrics([2])
    assert m.mrr == 0.5
    assert m.hits1 == 0.0
    assert m.hits3 == 1.0


def test_half_ranks_do_not_hit_one():
    m = ranking_metrics([1.5])
    assert m.hits1 == 0.0
    assert m.hits3 == 1.0


@given(st.lists(st.floats(1.0, 500.0), min_size=1, max_size=40))
def test_hits_monotone_and_mrr_bounded(ranks):
    m = ranking_metrics(ranks)
    assert m.hits1 <= m.hits3 <= m.hits10
    assert 0.0 < m.mrr <= 1.0
    assert m.mr >= 1.0


def test_empty_ranks_rejected():
    with pytest.raises(ValueError):
        ranking_metrics([])

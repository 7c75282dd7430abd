"""The four benchmark workloads and the session that times them.

Every workload follows the same plan: generate its dataset from the run
seed, check the loaded shapes, set up several times (``setup_s`` is the
median), then run timed units back to back for ``seconds`` as a closed loop
with one caller, checking each unit's output. The unit is one training
epoch (``node_cora``), one training step (``kg_train``), one full
evaluation pass (``kg_eval``) or one spectral report plus eigenvector check
(``spectrum``). See ``perfbench/README.md`` for why each workload exists.

The trainers are driven through their public entry points
(``train_node_classifier``, ``train_kg``). The benchmark sees their unit
boundaries by wrapping ``MagnaNet.forward``: each forward with
``training=True`` starts a unit, so one unit is forward, backward, optimizer
step and whatever the trainer does before the next step.
"""

from __future__ import annotations

import json
import os
import statistics
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import magna
import magna.model
import magna.tape
from magna.model import NetworkConfig
from magna.train import TrainConfig

import generate

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
NEVER = 10**9          # epoch cap and early-stop window the timed runs never reach
# A trainer is set up twice before and twice after its timed run, besides the
# set-up of the run itself, so that the samples span the run; the loop
# workloads set up afresh before every unit.
TRAIN_SETUPS = ("stop", "stop", "run", "stop", "stop")
TRAIN_WARMUP_UNITS = 2
KG_EVAL_SAMPLE = 50    # valid triples re-ranked by the brute-force ranker per pass
SPECTRUM_ALPHA = 0.5
SPECTRUM_TOL = 1e-9
REFERENCE_RTOL = 1e-6
PROBE_REPEATS = 4         # back-to-back probes before every set-up and every unit
PROBE_REFERENCE_S = 0.005 # probe time on a quiet machine (see README)

# Sizes per scale; "tiny" exists for the smoke test only.
SIZES = {
    "full": {
        "node": generate.CORA_SHAPE,
        "kg_train": generate.scaled(generate.WN18RR_SHAPE, 0.1),
        "kg_eval": generate.WN18RR_SHAPE,
        "spectrum_nodes": 80,
    },
    "tiny": {
        "node": dict(generate.CORA_SHAPE, nodes=120, edges=240, features=60, words_per_node=6,
                     train_per_class=4, val=30, test=40),
        "kg_train": generate.scaled(generate.WN18RR_SHAPE, 0.005),
        "kg_eval": generate.scaled(generate.WN18RR_SHAPE, 0.005),
        "spectrum_nodes": 12,
    },
}
# Fixed instances whose loss trajectories are pinned in reference.json.
REFERENCE_NODE_SHAPE = dict(generate.CORA_SHAPE, nodes=300, edges=600, features=100,
                            words_per_node=8, train_per_class=5, val=50, test=100)
REFERENCE_KG_SCALE = 0.01
REFERENCE_EPOCHS = {"node": 5, "kg": 2}


@dataclass(frozen=True)
class Context:
    root: str                    # checkout whose configs/ and src/ are used
    workdir: str                 # scratch directory for generated datasets
    seed: int
    scale: str                   # a key of SIZES
    rng: np.random.Generator     # the one stream every generated input comes from


class SpeedProbe:
    """A fixed mix of interpreter-bound, memory-bound and BLAS work.

    The machines this runs on are shared, and their speed drifts by up to 2x
    over minutes, the same for the probe as for the workload. Timed metrics
    are scaled by ``speed()`` so that the drift cancels; the raw times are
    reported alongside.
    """

    reference_s = PROBE_REFERENCE_S

    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = rng.random((256, 256))
        self.vector = rng.random(1_000_000)
        self.samples: list[float] = []

    def __call__(self) -> None:
        """Record the fastest of a few back-to-back probes, so that caches
        the workload left cold do not count."""
        times = []
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            total = 0.0
            for i in range(2000):
                total += float(self.matrix[i % 256, :8] @ self.matrix[:8, i % 256])
            total += float(self.vector.sum()) + float((self.matrix @ self.matrix)[0, 0])
            times.append(time.perf_counter() - start)
        self.samples.append(min(times))

    def speed(self) -> float:
        """Reference probe time over this run's mean probe time. The mean,
        not the median: the machine flips between a fast and a slow state
        every few seconds, and a unit's cost follows the share of time spent
        in each, which the mean estimates."""
        return self.reference_s / statistics.fmean(self.samples)


class Stop(Exception):
    """Raised from a hook to end a trainer at a unit boundary."""


@dataclass
class Unit:
    ms: float
    kind: str        # "warmup", "timed" or "excluded"
    traced: bool
    ok: bool


@dataclass
class Session:
    """Set-up repeats, timed units, and the switch to tracing halfway.

    With a tracer, the first half of the timed phase runs with tracing off
    (its median is the untraced reference for the overhead) and the second
    half with tracing on; set-ups are traced too.
    """

    seconds: float
    tracer: object = None
    warmup: int = 0
    excluded: object = None          # unit index -> True if not a plain unit
    setup_s: list = field(default_factory=list)
    units: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    probe: SpeedProbe = field(default_factory=SpeedProbe)
    _setup_t0: float = 0.0
    _open: tuple | None = None       # (start, kind, traced) of the running unit

    # -- operations ---------------------------------------------------------

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED {what}")
        return ok

    # -- set-up -------------------------------------------------------------

    def begin_setup(self) -> None:
        self.probe()
        if self.tracer is not None:
            self.tracer.run_id = f"setup{len(self.setup_s)}"
            self.tracer.enabled = True
        self._setup_t0 = time.perf_counter()

    @contextmanager
    def paused(self):
        """Leave the block's time out of the running set-up."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self._setup_t0 += time.perf_counter() - start

    def end_setup(self) -> None:
        self.setup_s.append(time.perf_counter() - self._setup_t0)
        if self.tracer is not None:
            self.tracer.enabled = False

    # -- units --------------------------------------------------------------

    def start_unit(self) -> bool:
        """Open the next unit, or return False when the timed phase is over."""
        self.probe()
        now = time.perf_counter()
        k = len(self.units)
        kind, traced = "warmup", False
        if k >= self.warmup:
            kind = "excluded" if self.excluded is not None and self.excluded(k) else "timed"
            # only unit time counts, not set-ups or checks between units
            elapsed = sum(u.ms for u in self.units if u.kind != "warmup") / 1e3
            timed = [u for u in self.units if u.kind == "timed"]
            if self.tracer is None:
                done = elapsed >= self.seconds
            else:
                traced = bool(timed) and (elapsed >= self.seconds / 2 or any(u.traced for u in timed))
                done = elapsed >= self.seconds and any(u.traced for u in timed)
            if done:
                if self.tracer is not None:
                    self.tracer.enabled = False
                return False
        if self.tracer is not None:
            self.tracer.run_id = f"unit{k}"
            self.tracer.enabled = traced
        self._open = (now, kind, traced)
        return True

    def end_unit(self, ok: bool, what: str, now: float | None = None) -> None:
        start, kind, traced = self._open
        now = time.perf_counter() if now is None else now
        if self.tracer is not None:
            self.tracer.enabled = False
        self.units.append(Unit((now - start) * 1e3, kind, traced, bool(ok)))
        self._open = None
        self.check(ok, f"{what} (unit {len(self.units) - 1})")

    @property
    def running(self) -> bool:
        return self._open is not None

    def unit_ms(self, traced: bool = False) -> list:
        return [u.ms for u in self.units if u.kind == "timed" and u.traced == traced]


# ---------------------------------------------------------------------------
# helpers


def load_config(root: str, name: str, **train_overrides) -> tuple[NetworkConfig, TrainConfig]:
    with open(os.path.join(root, "configs", name), encoding="utf-8") as fh:
        cfg = json.load(fh)
    return (NetworkConfig.from_dict(cfg["network"]),
            TrainConfig.from_dict({**cfg["train"], **train_overrides}))


@contextmanager
def patched(owner, attr: str, make):
    """Replace ``owner.attr`` by ``make(original)`` for the block."""
    original = owner.__dict__[attr]
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def drive_trainer(session: Session, load, train) -> None:
    """Set up and time a trainer.

    Each set-up is ``load()`` followed by ``train(dataset)`` up to its first
    training forward. The trainer is stopped there, except in the set-up
    marked "run" in ``TRAIN_SETUPS``, which goes on into the timed units.
    """
    losses = []
    state = {"in_setup": False, "stop": True}

    def make_forward(original):
        def forward(self, *args, training=False, **kwargs):
            if training:
                if state["in_setup"]:
                    state["in_setup"] = False
                    session.end_setup()
                    if state["stop"]:
                        raise Stop
                else:
                    ok = len(losses) == len(session.units) + 1 and np.isfinite(losses[-1])
                    session.end_unit(ok, "finite training loss")
                if not session.start_unit():
                    raise Stop
            return original(self, *args, training=training, **kwargs)
        return forward

    def make_backward(original):
        def backward(self):
            losses.append(float(self.data))
            return original(self)
        return backward

    with patched(magna.model.MagnaNet, "forward", make_forward), \
            patched(magna.tape.Tensor, "backward", make_backward):
        for plan in TRAIN_SETUPS:
            state["stop"] = plan == "stop"
            session.begin_setup()
            state["in_setup"] = True
            dataset = load()
            losses.clear()
            try:
                train(dataset)
            except Stop:
                pass
            except Exception:  # a failing trainer is a failed unit, not a crash
                session.notes.append(traceback.format_exc())
                if session.running:
                    session.end_unit(False, "trainer raised")
                else:
                    session.check(False, "trainer raised")
                break


def _matches(actual, expected, rtol=REFERENCE_RTOL) -> bool:
    a, e = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    return a.shape == e.shape and bool(np.all(np.isfinite(a))) and bool(np.allclose(a, e, rtol=rtol, atol=1e-12))


def _reference_node(root: str, workdir: str):
    data = os.path.join(workdir, "reference_node")
    generate.node_dataset(data, np.random.default_rng(0), REFERENCE_NODE_SHAPE)
    net, train = load_config(root, "cora_desk.json", epochs=REFERENCE_EPOCHS["node"], window=NEVER, seed=0)
    return magna.train_node_classifier(magna.load_node_dataset(data), net, train)[0]


def _reference_kg(root: str, workdir: str):
    data = os.path.join(workdir, "reference_kg")
    generate.kg_dataset(data, np.random.default_rng(0), generate.scaled(generate.WN18RR_SHAPE, REFERENCE_KG_SCALE))
    net, train = load_config(root, "kg_toy.json", epochs=REFERENCE_EPOCHS["kg"], window=NEVER, seed=0)
    return magna.train_kg(magna.load_kg_dataset(data), net, train)[0]


REFERENCE_RUNS = {"node": _reference_node, "kg": _reference_kg}


def reference_run(root: str, workdir: str, kind: str) -> dict:
    """Loss, validation and test trajectory of one small fixed training run."""
    report = REFERENCE_RUNS[kind](root, workdir)
    return {"train_loss": report.train_loss, "val_metric": report.val_metric,
            "test_metric": report.test_metric}


def check_reference(session: Session, ctx, kind: str) -> None:
    """Re-run the pinned reference training and compare its trajectory."""
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)[kind]
    actual = reference_run(ctx.root, ctx.workdir, kind)
    ok = all(_matches(actual[k], expected[k]) for k in expected)
    session.check(ok, f"{kind} reference trajectory within rtol {REFERENCE_RTOL}")
    session.notes.append(f"reference {kind} train_loss {actual['train_loss']}")


def check_shape(session: Session, what: str, actual: dict, expected: dict) -> None:
    ok = actual == expected
    session.check(ok, f"{what} shape {actual} != {expected}" if not ok else what)
    session.notes.append(f"shape {what}: " + ", ".join(f"{k}={v}" for k, v in actual.items()))


# ---------------------------------------------------------------------------
# workloads


def node_cora(ctx, session: Session) -> None:
    shape = SIZES[ctx.scale]["node"]
    data = os.path.join(ctx.workdir, "node")
    truth = generate.node_dataset(data, ctx.rng, shape)
    net, train_cfg = load_config(ctx.root, "cora_desk.json", epochs=NEVER, window=NEVER, seed=ctx.seed)
    session.warmup = TRAIN_WARMUP_UNITS

    def load():
        ds = magna.load_node_dataset(data)
        if not session.setup_s:  # the first set-up checks what it loaded
            with session.paused():
                split = tuple(int((ds.split == s).sum()) for s in (0, 1, 2))
                check_shape(session, "node dataset",
                            {"nodes": ds.graph.num_nodes, "directed_edges": ds.graph.num_edges,
                             "features": ds.features.shape[1], "classes": ds.num_classes,
                             "feature_nonzeros": int(np.count_nonzero(ds.features)), "split_sizes": split},
                            {k: truth[k] for k in ("nodes", "directed_edges", "features", "classes",
                                                   "feature_nonzeros", "split_sizes")})
        return ds

    drive_trainer(session, load, lambda ds: magna.train_node_classifier(ds, net, train_cfg))
    check_reference(session, ctx, "node")


def kg_train(ctx, session: Session) -> None:
    shape = SIZES[ctx.scale]["kg_train"]
    data = os.path.join(ctx.workdir, "kg_train")
    truth = generate.kg_dataset(data, ctx.rng, shape)
    net, train_cfg = load_config(ctx.root, "kg_toy.json", epochs=NEVER, window=NEVER, seed=ctx.seed)
    train = truth["train"]
    num_rel = truth["relations"]
    queries = len(np.unique(np.concatenate([train[:, 0] * 2 * num_rel + train[:, 1],
                                            train[:, 2] * 2 * num_rel + train[:, 1] + num_rel])))
    per_epoch = -(-queries // train_cfg.batch_size)
    session.warmup = TRAIN_WARMUP_UNITS
    # the last step of an epoch also runs validation; it is not a plain step
    session.excluded = lambda k: (k + 1) % per_epoch == 0

    def load():
        kg = magna.load_kg_dataset(data)
        if not session.setup_s:  # the first set-up checks what it loaded
            with session.paused():
                _check_kg_shape(session, kg, truth)
        return kg

    drive_trainer(session, load, lambda kg: magna.train_kg(kg, net, train_cfg))
    session.notes.append(f"steps per epoch {per_epoch} ({queries} train queries, batch {train_cfg.batch_size})")
    check_reference(session, ctx, "kg")


def _check_kg_shape(session, kg, truth):
    used = np.zeros(kg.num_entities, dtype=bool)
    used[kg.train[:, [0, 2]].reshape(-1)] = True
    check_shape(session, "kg dataset",
                {"entities": kg.num_entities, "relations": len(kg.relation_names),
                 "triples": (len(kg.train), len(kg.valid), len(kg.test)),
                 "graph_edges": kg.graph.num_edges, "entities_unused_in_train": int((~used).sum())},
                {"entities": truth["entities"], "relations": truth["relations"],
                 "triples": (len(truth["train"]), len(truth["valid"]), len(truth["test"])),
                 "graph_edges": 2 * len(truth["train"]), "entities_unused_in_train": 0})


def brute_force_ranks(entity, relations, truth, ids, rel_ids, sample):
    """Filtered ranks of the sampled valid triples from the generator's own
    triple sets, ties at half weight; also how many candidates sit within
    round-off of the target, which bounds a legitimate disagreement."""
    all_triples = np.concatenate([truth["train"], truth["valid"], truth["test"]])
    num_rel = truth["relations"]
    out = []
    for h, r, t in truth["valid"][sample]:
        # the loader numbers relations by first appearance; reverses follow
        for q, row, target, known in (
            (h, rel_ids[r], t, all_triples[(all_triples[:, 0] == h) & (all_triples[:, 1] == r), 2]),
            (t, rel_ids[r] + num_rel, h, all_triples[(all_triples[:, 2] == t) & (all_triples[:, 1] == r), 0]),
        ):
            scores = entity @ (entity[ids[q]] * relations[row])
            keep = np.ones(len(scores), dtype=bool)
            keep[ids[known]] = False
            s = scores[ids[target]]
            rank = 1.0 + np.count_nonzero((scores > s) & keep) + np.count_nonzero((scores == s) & keep) / 2.0
            near = np.count_nonzero((np.abs(scores - s) <= 1e-9 * max(1.0, abs(s))) & keep)
            out.append((rank, near))
    return out


def kg_eval(ctx, session: Session) -> None:
    shape = SIZES[ctx.scale]["kg_eval"]
    data = os.path.join(ctx.workdir, "kg_eval")
    truth = generate.kg_dataset(data, ctx.rng, shape)
    net, _ = load_config(ctx.root, "kg_toy.json")

    def setup():
        session.begin_setup()
        kg = magna.load_kg_dataset(data)
        if not session.setup_s:
            with session.paused():
                _check_kg_shape(session, kg, truth)
        model = magna.train.build_kg_model(kg, net, np.random.default_rng(ctx.seed))
        session.end_setup()
        return kg, model

    kg, model = setup()
    index = {name: i for i, name in enumerate(kg.entity_names)}
    ids = np.array([index[name] for name in truth["names"]])
    rel_ids = np.array([kg.relation_names.index(name) for name in truth["relation_names"]])
    sample = np.random.default_rng(ctx.seed + 1).choice(
        len(truth["valid"]), min(KG_EVAL_SAMPLE, len(truth["valid"])), replace=False)
    # the loader keeps valid triples in file order, two ranks per triple
    positions = np.stack([2 * sample, 2 * sample + 1], axis=1).reshape(-1)
    while session.start_unit():
        with magna.no_grad():
            entity = model.entity_repr().data
        ranks = magna.kg_filtered_ranks(entity, model.decoder.relations.data, kg, kg.valid)
        end = time.perf_counter()
        expected = brute_force_ranks(entity, model.decoder.relations.data, truth, ids, rel_ids, sample)
        ok = (len(ranks) == 2 * len(kg.valid) and bool(np.all(np.isfinite(ranks)))
              and bool(np.all((ranks >= 1) & (ranks <= kg.num_entities)))
              and all(abs(ranks[p] - r) <= near for p, (r, near) in zip(positions, expected)))
        session.end_unit(ok, "filtered ranks match the brute-force ranker", now=end)
        kg, model = setup()
    session.notes.append(f"ranks per pass {2 * len(kg.valid)}; mrr {magna.ranking_metrics(ranks).mrr:.6f}")


def spectrum(ctx, session: Session) -> None:
    n = SIZES[ctx.scale]["spectrum_nodes"]
    data = os.path.join(ctx.workdir, "spectrum")
    truth = generate.graph_dataset(data, ctx.rng, n, n)

    def setup():
        session.begin_setup()
        graph = magna.load_node_dataset(data).graph
        if not session.setup_s:
            with session.paused():
                check_shape(session, "graph", {"nodes": graph.num_nodes, "directed_edges": graph.num_edges},
                            {k: truth[k] for k in ("nodes", "directed_edges")})
        weights = np.zeros((graph.num_nodes, graph.num_nodes))
        weights[graph.dst, graph.src] = 1.0
        session.end_setup()
        return weights

    weights = setup()
    inv_sqrt = 1.0 / np.sqrt(weights.sum(axis=1))
    lam = np.linalg.eigvalsh(inv_sqrt[:, None] * weights * inv_sqrt[None, :])
    lam_hat = SPECTRUM_ALPHA / (1.0 - (1.0 - SPECTRUM_ALPHA) * lam)
    while session.start_unit():
        report = magna.spectrum_report(weights, SPECTRUM_ALPHA)
        residual = magna.verify_eigenvector_sharing(weights, SPECTRUM_ALPHA)
        end = time.perf_counter()
        ok = (np.allclose(report.lam, lam, rtol=0, atol=SPECTRUM_TOL)
              and np.allclose(report.lam_hat, lam_hat, rtol=0, atol=SPECTRUM_TOL)
              and residual <= SPECTRUM_TOL)
        session.end_unit(bool(ok), "eigenvalues match eigvalsh and the spectral map", now=end)
        weights = setup()
    session.notes.append(f"max eigen deviation {report.max_eigen_deviation:.3e}; sharing residual {residual:.3e}")


WORKLOADS = {"node_cora": node_cora, "kg_train": kg_train, "kg_eval": kg_eval, "spectrum": spectrum}

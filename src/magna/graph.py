"""Load, validate, and index graph datasets into an edge-indexed form.

Graphs are stored as flat (src, rel, dst) arrays sorted by destination, with
a CSR-style ``in_indptr`` so aggregation into a node scans one contiguous
segment. Everything is immutable after construction and safe to share across
threads.

On-disk formats (UTF-8, LF, tab-separated; a leading byte-order mark is
skipped):
  node dataset dir: features.tsv  ``node_id<TAB>v1,v2,...``
                    edges.tsv     ``src<TAB>dst[<TAB>relation]``
                    labels.tsv    ``node_id<TAB>class_id``
                    splits.tsv    ``node_id<TAB>train|val|test``
  KG dir:           train.txt / valid.txt / test.txt  ``head<TAB>relation<TAB>tail``
"""

from __future__ import annotations

import os
from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import compress, count, islice, repeat

import numpy as np

__all__ = [
    "Graph",
    "NodeDataset",
    "KgDataset",
    "GraphFormatError",
    "load_node_dataset",
    "load_kg_dataset",
    "read_edge_file",
    "kg_queries",
    "kg_answer_index",
    "kg_known_answers",
]

SPLIT_TOKENS = ("train", "val", "test")
SPLIT_NONE, SPLIT_TRAIN, SPLIT_VAL, SPLIT_TEST = -1, 0, 1, 2
# features.tsv lines per np.loadtxt call: one block's text and parsed rows
# are what a load holds beside its array (about 2 MB at Cora's width)
_FEATURE_BLOCK_LINES = 64


class GraphFormatError(ValueError):
    """Malformed or inconsistent dataset content, with file/line context."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        where = ""
        if path is not None:
            where = f"{path}: " if line is None else f"{path}:{line}: "
        super().__init__(where + message)


class Graph:
    """Edge-indexed multigraph with relation ids.

    Edges are sorted by (dst, src, rel); ``in_indptr[i]:in_indptr[i+1]``
    delimits the incoming edges of node ``i``.
    """

    __slots__ = ("num_nodes", "num_relations", "src", "rel", "dst", "in_indptr")

    def __init__(self, num_nodes, num_relations, edges):
        """``edges``: (src, rel, dst) rows, as an (E, 3) array or a list of tuples."""
        self.num_nodes = int(num_nodes)
        self.num_relations = int(num_relations)
        _check_key_bound(self.num_nodes, self.num_relations)
        edges = np.asarray(edges, dtype=np.int64)
        if edges.size and (edges.ndim != 2 or edges.shape[1] != 3):
            raise ValueError(f"edges must be (src, rel, dst) rows, got shape {edges.shape}")
        src, rel, dst = edges.reshape(-1, 3).T

        for name, ids, bound in (("node", src, self.num_nodes), ("node", dst, self.num_nodes), ("relation", rel, self.num_relations)):
            if ids.size and (ids.min() < 0 or ids.max() >= bound):
                raise GraphFormatError(f"{name} id out of range (0..{bound - 1})")

        # (dst, src, rel) as one key, which sorts and splits back into its ids
        key = dst * self.num_nodes
        key += src
        key *= self.num_relations
        key += rel
        key.sort()
        # a repeated edge sits next to its twin
        if np.any(np.diff(key) == 0):
            raise GraphFormatError("duplicate (src, rel, dst) edge")
        key, self.rel = np.divmod(key, self.num_relations)
        self.dst, self.src = np.divmod(key, self.num_nodes)
        counts = np.bincount(self.dst, minlength=self.num_nodes)
        self.in_indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)

    @property
    def num_edges(self) -> int:
        return int(self.src.shape[0])

    def with_self_loops(self) -> "Graph":
        """Add a relation-0 self loop to every node with no incoming edge.

        Keeps every attention row normalizable; no-op when none are missing.
        """
        missing = np.flatnonzero(np.diff(self.in_indptr) == 0)
        if missing.size == 0:
            return self
        edges = np.concatenate([
            np.stack([self.src, self.rel, self.dst], axis=1),
            np.stack([missing, np.zeros_like(missing), missing], axis=1),
        ])
        return Graph(self.num_nodes, max(self.num_relations, 1), edges)


def _check_key_bound(num_nodes: int, num_relations: int) -> None:
    """Raise unless every ``(node * num_nodes + node) * num_relations +
    relation`` key, the largest being ``num_nodes**2 * num_relations - 1``,
    fits in int64."""
    if num_nodes ** 2 * num_relations > 2 ** 63:
        raise ValueError(f"{num_nodes} nodes and {num_relations} relations overflow "
                         "an int64 sort key (N*N*R > 2**63)")


def kg_queries(triples, num_relations: int) -> np.ndarray:
    """Both directions of each (head, rel, tail) triple as (entity, relation,
    answer) rows, interleaved: row ``2i`` is ``(h, r, t)`` and row ``2i+1``
    is ``(t, r + num_relations, h)``, relation ``r``'s reverse twin."""
    h, r, t = np.asarray(triples, dtype=np.int64).reshape(-1, 3).T
    return np.stack([h, r, t, t, r + num_relations, h], axis=1).reshape(-1, 3)


def kg_answer_index(triples, num_relations: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``kg_queries`` of ``triples`` grouped by key ``entity * 2 *
    num_relations + relation``, as ``(keys, indptr, answers)``: ``keys``
    ascend, and ``answers[indptr[i]:indptr[i+1]]`` are the distinct answers
    to ``keys[i]``, ascending."""
    entities, relations, answers = kg_queries(triples, num_relations).T
    num_entities = int(answers.max(initial=0)) + 1
    _check_key_bound(num_entities, 2 * num_relations)
    # each (key, answer) pair as one int64, ordered by key, then answer
    pairs = entities * (2 * num_relations)
    pairs += relations
    pairs *= num_entities
    pairs += answers
    pairs.sort()
    # a triple in more than one split gives the same (key, answer) pair; ids
    # are non-negative, so the first pair differs from the -1 before it
    keys, answers = np.divmod(pairs[np.diff(pairs, prepend=-1) != 0], num_entities)
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    return keys[starts], np.append(starts, len(answers)), answers


def kg_known_answers(index, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The answers in a ``kg_answer_index`` to each of ``keys``, as ``(rows,
    cols)``: ``cols[j]`` answers ``keys[rows[j]]``. A key that is not in the
    index has none."""
    index_keys, indptr, answers = index
    # a key found at i spans indptr[i:i+2]; a missing one spans nothing
    starts = indptr[np.searchsorted(index_keys, keys)]
    counts = indptr[np.searchsorted(index_keys, keys, side="right")] - starts
    rows = np.repeat(np.arange(len(keys)), counts)
    # output j is answer j - firsts[r] of key r = rows[j]
    firsts = np.cumsum(counts) - counts
    return rows, answers[starts[rows] + np.arange(len(rows)) - firsts[rows]]


@dataclass(frozen=True)
class NodeDataset:
    graph: Graph
    features: np.ndarray          # (num_nodes, d_n) float64
    labels: np.ndarray            # (num_nodes,) int64, -1 for unlabeled
    split: np.ndarray             # (num_nodes,) int64 in {SPLIT_*}
    num_classes: int

    def mask(self, which: int) -> np.ndarray:
        return self.split == which


@dataclass(frozen=True)
class KgDataset:
    graph: Graph                  # train triples plus reverse triples
    entity_names: list
    relation_names: list          # original relations only
    train: np.ndarray             # (n, 3) int64 with original relation ids
    valid: np.ndarray
    test: np.ndarray
    answer_index: tuple = field(repr=False)  # kg_answer_index of all three splits

    @property
    def num_entities(self) -> int:
        return len(self.entity_names)

    @property
    def num_relations(self) -> int:
        """Relation count including reverse directions."""
        return 2 * len(self.relation_names)


# ---------------------------------------------------------------------------
# node dataset I/O


def _open(path: str):
    """``path`` opened as UTF-8 text, a leading byte-order mark skipped."""
    if not os.path.isfile(path):
        raise GraphFormatError("missing file", path)
    return open(path, encoding="utf-8-sig")


def _read_lines(path: str):
    """Yield (line number, text) for each nonblank line, newline stripped,
    as the file is read."""
    with _open(path) as fh:
        for i, line in enumerate(fh, start=1):
            if line.strip():
                yield i, line.rstrip("\n")


def _parse_int(text: str, what: str, path: str, line: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise GraphFormatError(f"bad {what} {text!r}", path, line) from None


def _repeat_line(rows: np.ndarray, lines) -> int | None:
    """The line of the first of ``rows`` equal to an earlier row, or None
    when no row repeats; ``lines[i]`` is the line of ``rows[i]``."""
    seen = set()
    for row, line in zip(map(tuple, rows.tolist()), lines):
        if row in seen:
            return int(line)
        seen.add(row)
    return None


def read_edge_file(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse an edges.tsv file of ``src<TAB>dst[<TAB>relation]`` rows.

    Returns the rows as an (n, 3) int64 array of (src, relation, dst), the
    relation 0 where the column is absent, and each row's line number. Ids
    must be non-negative integers; upper bounds are the caller's to check.
    """
    rows, lines = [], []
    for lineno, line in _read_lines(path):
        parts = line.split("\t")
        if len(parts) not in (2, 3):
            raise GraphFormatError("expected src<TAB>dst[<TAB>relation]", path, lineno)
        u = _parse_int(parts[0], "node id", path, lineno)
        v = _parse_int(parts[1], "node id", path, lineno)
        r = _parse_int(parts[2], "relation id", path, lineno) if len(parts) == 3 else 0
        if u < 0 or v < 0:
            raise GraphFormatError("node id out of range", path, lineno)
        if r < 0:
            raise GraphFormatError("relation id out of range", path, lineno)
        rows.append((u, r, v))
        lines.append(lineno)
    return np.array(rows, dtype=np.int64).reshape(-1, 3), np.array(lines, dtype=np.int64)


def _parse_features(path: str, lines: Iterable[tuple[int, list[str]]]) -> np.ndarray:
    """The per-line ``float()`` parse of features.tsv lines, each split at its
    tabs. It defines the accepted syntax and reports the first fault at its line."""
    rows = {}
    width = None
    for lineno, parts in lines:
        if len(parts) != 2:
            raise GraphFormatError("expected node_id<TAB>values", path, lineno)
        nid = _parse_int(parts[0], "node id", path, lineno)
        try:
            vec = [float(v) for v in parts[1].split(",")]
        except ValueError:
            raise GraphFormatError("bad feature value", path, lineno) from None
        if width is None:
            width = len(vec)
        elif len(vec) != width:
            raise GraphFormatError(f"ragged feature row ({len(vec)} values, expected {width})", path, lineno)
        if nid in rows:
            raise GraphFormatError(f"duplicate node id {nid}", path, lineno)
        rows[nid] = vec
    num_nodes = len(rows)
    if num_nodes == 0:
        raise GraphFormatError("no feature rows", path)
    if sorted(rows) != list(range(num_nodes)):
        raise GraphFormatError("node ids must be exactly 0..N-1", path)
    return np.array([rows[i] for i in range(num_nodes)], dtype=np.float64)


def _read_features(path: str) -> np.ndarray:
    """features.tsv as an (N, d) float64 array, row ``i`` for node ``i``.

    The file is read twice through one handle. The first pass counts the
    nonblank lines and takes the width from the first of them, so the array
    is allocated before any line is held. The second pass parses blocks of
    ``_FEATURE_BLOCK_LINES`` lines with numpy's C reader and writes each row
    in place at its node id, so a load holds the array plus one block.

    Like ``float()`` the C reader ends in ``PyOS_string_to_double``, so a
    value it accepts has ``float()``'s bits, with one exception: it strips
    \\x1c-\\x1f around a value, which ``float()`` rejects. A file with a fault,
    with one of those characters, or with syntax only ``float()`` reads
    (underscores, non-ASCII digits) goes to ``_parse_features``, which reads
    it again and reports the first fault at its line.
    """
    with _open(path) as fh:
        features = _stream_features(fh)
    if features is None:
        features = _parse_features(path, ((i, line.split("\t")) for i, line in _read_lines(path)))
    return features


def _stream_features(fh) -> np.ndarray | None:
    """The two passes of ``_read_features`` over ``fh``, or None for a file
    that must go to ``_parse_features``."""
    # a line is blank when it strips to nothing, as in _read_lines
    nonblank = (line for line in fh if not line.isspace())
    first = next(nonblank, "").rstrip("\n").split("\t")
    if len(first) != 2:
        return None
    num_rows = 1 + sum(1 for _ in nonblank)
    features = np.empty((num_rows, first[1].count(",") + 1))
    seen = np.zeros(num_rows, dtype=bool)
    fh.seek(0)
    nonblank = (line for line in fh if not line.isspace())
    while block := [line.rstrip("\n").split("\t") for line in islice(nonblank, _FEATURE_BLOCK_LINES)]:
        # numpy skips an empty line, so an empty values field would drop its row
        if not all(len(parts) == 2 and parts[1] for parts in block):
            return None
        values = [parts[1] for parts in block]
        if any(c in v for v in values for c in "\x1c\x1d\x1e\x1f"):
            return None
        try:
            ids = [int(parts[0]) for parts in block]
            block_rows = np.loadtxt(values, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            return None
        if block_rows.shape != (len(block), features.shape[1]) or min(ids) < 0 or max(ids) >= num_rows:
            return None
        features[ids] = block_rows
        seen[ids] = True
    # the N rows, their ids in range, cover 0..N-1 only if each id is there once
    return features if seen.all() else None


def load_node_dataset(directory: str) -> NodeDataset:
    """Load a node-classification dataset from its TSV directory.

    Edges are treated as undirected and stored in both directions; rows
    without a relation column get relation id 0.
    """
    features = _read_features(os.path.join(directory, "features.tsv"))
    num_nodes = len(features)

    def check_node(nid, path, lineno):
        if not 0 <= nid < num_nodes:
            raise GraphFormatError("node id out of range", path, lineno)

    edge_path = os.path.join(directory, "edges.tsv")
    rows, lines = read_edge_file(edge_path)
    too_big = np.flatnonzero(np.maximum(rows[:, 0], rows[:, 2]) >= num_nodes)
    if too_big.size:
        raise GraphFormatError("node id out of range", edge_path, int(lines[too_big[0]]))
    num_relations = max(1, int(rows[:, 1].max(initial=0)) + 1)
    # (u, r, v) reversed is (v, r, u); a self loop is stored once
    edges = np.concatenate([rows, rows[rows[:, 0] != rows[:, 2], ::-1]])

    label_path = os.path.join(directory, "labels.tsv")
    labels = np.full(num_nodes, -1, dtype=np.int64)
    for lineno, line in _read_lines(label_path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise GraphFormatError("expected node_id<TAB>class_id", label_path, lineno)
        nid = _parse_int(parts[0], "node id", label_path, lineno)
        cls = _parse_int(parts[1], "class id", label_path, lineno)
        check_node(nid, label_path, lineno)
        if cls < 0:
            raise GraphFormatError("class id must be nonnegative", label_path, lineno)
        if labels[nid] >= 0:
            raise GraphFormatError(f"node {nid} labelled more than once", label_path, lineno)
        labels[nid] = cls
    num_classes = int(labels.max()) + 1 if (labels >= 0).any() else 0

    split_path = os.path.join(directory, "splits.tsv")
    split = np.full(num_nodes, SPLIT_NONE, dtype=np.int64)
    for lineno, line in _read_lines(split_path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise GraphFormatError("expected node_id<TAB>split", split_path, lineno)
        nid = _parse_int(parts[0], "node id", split_path, lineno)
        check_node(nid, split_path, lineno)
        if parts[1] not in SPLIT_TOKENS:
            raise GraphFormatError(f"unknown split token {parts[1]!r}", split_path, lineno)
        if split[nid] != SPLIT_NONE:
            raise GraphFormatError(f"node {nid} assigned to more than one split", split_path, lineno)
        split[nid] = SPLIT_TOKENS.index(parts[1])

    labelled = (split != SPLIT_NONE) & (labels < 0)
    if labelled.any():
        raise GraphFormatError(f"split node {int(np.flatnonzero(labelled)[0])} has no label", split_path)

    try:
        graph = Graph(num_nodes, num_relations, edges)
    except GraphFormatError as exc:
        # a row repeats an earlier one if both name the same pair either way round
        pairs = np.sort(rows[:, ::2], axis=1)
        undirected = np.stack([pairs[:, 0], rows[:, 1], pairs[:, 1]], axis=1)
        raise GraphFormatError(str(exc), edge_path, _repeat_line(undirected, lines)) from None
    return NodeDataset(graph, features, labels, split, num_classes)


# ---------------------------------------------------------------------------
# knowledge graph I/O


def _read_triples(path: str, entity_ids: defaultdict, relation_ids: defaultdict) -> tuple[np.ndarray, np.ndarray]:
    """Parse a ``head<TAB>relation<TAB>tail`` file into an (n, 3) int64 id
    array, interning new names into the two dicts in order of appearance
    (head before tail). Also returns each row's line number.

    Each dict's default factory hands out the next id, so one lookup per
    name interns it. The file is read and split whole, and the lookups run
    as C loops over the field lists, with no Python code per line.
    """
    with _open(path) as fh:
        lines = fh.read().split("\n")
    # as _read_lines: a line is blank when it strips to nothing
    nonblank = np.fromiter(map(bool, map(str.strip, lines)), dtype=bool, count=len(lines))
    tabs = np.fromiter(map(str.count, lines, repeat("\t")), dtype=np.int64, count=len(lines))
    bad = np.flatnonzero(nonblank & (tabs != 2))
    if bad.size:
        raise GraphFormatError("expected head<TAB>relation<TAB>tail", path, int(bad[0]) + 1)
    # every kept line holds two tabs, so its fields are 3i, 3i+1, 3i+2
    kept = "\t".join(compress(lines, nonblank.tolist()))
    del lines
    fields = kept.split("\t") if nonblank.any() else []
    del kept
    relations = fields[1::3]
    del fields[1::3]  # leaves head, tail, head, tail, ...
    rows = np.empty((len(relations), 3), dtype=np.int64)
    rows[:, ::2] = np.fromiter(map(entity_ids.__getitem__, fields), dtype=np.int64,
                               count=len(fields)).reshape(-1, 2)
    del fields
    rows[:, 1] = np.fromiter(map(relation_ids.__getitem__, relations), dtype=np.int64, count=len(relations))
    return rows, np.flatnonzero(nonblank) + 1


def load_kg_dataset(directory: str) -> KgDataset:
    """Load a KG from train/valid/test triple files.

    String ids are interned in first-appearance order (train first), so
    entities and relations first seen in valid/test get ids too. The graph
    holds every train triple in both directions: relation ``k`` gets a
    reverse twin ``k + num_relations``.
    """
    entity_ids = defaultdict(count().__next__)
    relation_ids = defaultdict(count().__next__)
    (train, train_lines), (valid, _), (test, _) = (
        _read_triples(os.path.join(directory, f"{name}.txt"), entity_ids, relation_ids)
        for name in ("train", "valid", "test"))
    n_rel = len(relation_ids)

    try:
        graph = Graph(len(entity_ids), 2 * n_rel, kg_queries(train, n_rel))
    except GraphFormatError as exc:
        raise GraphFormatError(str(exc), os.path.join(directory, "train.txt"),
                               _repeat_line(train, train_lines)) from None

    # ids follow insertion order, so each dict's keys are its names by id
    return KgDataset(graph, list(entity_ids), list(relation_ids), train, valid, test,
                     kg_answer_index(np.concatenate([train, valid, test]), n_rel))

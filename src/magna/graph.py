"""Load, validate, and index graph datasets into an edge-indexed form.

Graphs are stored as flat (src, rel, dst) arrays sorted by destination, with
a CSR-style ``in_indptr`` so aggregation into a node scans one contiguous
segment. Everything is immutable after construction and safe to share across
threads.

On-disk formats (UTF-8, LF, tab-separated):
  node dataset dir: features.tsv  ``node_id<TAB>v1,v2,...``
                    edges.tsv     ``src<TAB>dst[<TAB>relation]``
                    labels.tsv    ``node_id<TAB>class_id``
                    splits.tsv    ``node_id<TAB>train|val|test``
  KG dir:           train.txt / valid.txt / test.txt  ``head<TAB>relation<TAB>tail``
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Graph",
    "NodeDataset",
    "KgDataset",
    "GraphFormatError",
    "load_node_dataset",
    "load_kg_dataset",
    "save_node_dataset",
    "save_kg_dataset",
    "read_edge_file",
    "kg_queries",
]

SPLIT_TOKENS = ("train", "val", "test")
SPLIT_NONE, SPLIT_TRAIN, SPLIT_VAL, SPLIT_TEST = -1, 0, 1, 2


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
        edges = np.asarray(edges, dtype=np.int64)
        if edges.size and (edges.ndim != 2 or edges.shape[1] != 3):
            raise ValueError(f"edges must be (src, rel, dst) rows, got shape {edges.shape}")
        src, rel, dst = edges.reshape(-1, 3).T

        for name, ids, bound in (("node", src, self.num_nodes), ("node", dst, self.num_nodes), ("relation", rel, self.num_relations)):
            if ids.size and (ids.min() < 0 or ids.max() >= bound):
                raise GraphFormatError(f"{name} id out of range (0..{bound - 1})")

        order = np.lexsort((rel, src, dst))
        self.src = src[order]
        self.rel = rel[order]
        self.dst = dst[order]
        # sorted by the full key, so any repeated edge sits next to its twin
        if np.any((self.src[1:] == self.src[:-1]) & (self.rel[1:] == self.rel[:-1])
                  & (self.dst[1:] == self.dst[:-1])):
            raise GraphFormatError("duplicate (src, rel, dst) edge")
        counts = np.bincount(self.dst, minlength=self.num_nodes)
        self.in_indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)

    @property
    def num_edges(self) -> int:
        return int(self.src.shape[0])

    def edge_list(self) -> list[tuple[int, int, int]]:
        return [(int(s), int(r), int(d)) for s, r, d in zip(self.src, self.rel, self.dst)]

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


def kg_queries(triples, num_relations: int) -> np.ndarray:
    """Both directions of each (head, rel, tail) triple as (entity, relation,
    answer) rows, interleaved: row ``2i`` is ``(h, r, t)`` and row ``2i+1``
    is ``(t, r + num_relations, h)``, relation ``r``'s reverse twin."""
    h, r, t = np.asarray(triples, dtype=np.int64).reshape(-1, 3).T
    return np.stack([h, r, t, t, r + num_relations, h], axis=1).reshape(-1, 3)


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
    filter_index: dict = field(repr=False)   # (head, rel-or-reverse) -> set of tails

    @property
    def num_entities(self) -> int:
        return len(self.entity_names)

    @property
    def num_relations(self) -> int:
        """Relation count including reverse directions."""
        return 2 * len(self.relation_names)


# ---------------------------------------------------------------------------
# node dataset I/O


def _read_lines(path: str) -> list[tuple[int, str]]:
    if not os.path.isfile(path):
        raise GraphFormatError("missing file", path)
    with open(path, encoding="utf-8") as fh:
        return [(i, line.rstrip("\n")) for i, line in enumerate(fh, start=1) if line.strip()]


def _parse_int(text: str, what: str, path: str, line: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise GraphFormatError(f"bad {what} {text!r}", path, line) from None


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


def load_node_dataset(directory: str) -> NodeDataset:
    """Load a node-classification dataset from its TSV directory.

    Edges are treated as undirected and stored in both directions; rows
    without a relation column get relation id 0.
    """
    feat_path = os.path.join(directory, "features.tsv")
    rows = {}
    width = None
    for lineno, line in _read_lines(feat_path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise GraphFormatError("expected node_id<TAB>values", feat_path, lineno)
        nid = _parse_int(parts[0], "node id", feat_path, lineno)
        try:
            vec = [float(v) for v in parts[1].split(",")]
        except ValueError:
            raise GraphFormatError("bad feature value", feat_path, lineno) from None
        if width is None:
            width = len(vec)
        elif len(vec) != width:
            raise GraphFormatError(f"ragged feature row ({len(vec)} values, expected {width})", feat_path, lineno)
        if nid in rows:
            raise GraphFormatError(f"duplicate node id {nid}", feat_path, lineno)
        rows[nid] = vec
    num_nodes = len(rows)
    if num_nodes == 0:
        raise GraphFormatError("no feature rows", feat_path)
    if sorted(rows) != list(range(num_nodes)):
        raise GraphFormatError("node ids must be exactly 0..N-1", feat_path)
    features = np.array([rows[i] for i in range(num_nodes)], dtype=np.float64)

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
        raise GraphFormatError(str(exc), edge_path) from None
    return NodeDataset(graph, features, labels, split, num_classes)


def save_node_dataset(ds: NodeDataset, directory: str) -> None:
    """Write a node dataset back to its TSV directory (inverse of load).

    ``edges.tsv`` holds undirected edges, so a graph edge without its
    reverse raises before any file is written.
    """
    edges = ds.graph.edge_list()
    one_way = set(edges) - {(d, r, s) for s, r, d in edges}
    if one_way:
        s, r, d = min(one_way)
        raise GraphFormatError(f"edge ({s}, {r}, {d}) has no reverse ({d}, {r}, {s}); "
                               "edges.tsv stores undirected edges")
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "features.tsv"), "w", encoding="utf-8") as fh:
        for i, row in enumerate(ds.features):
            fh.write(f"{i}\t{','.join(repr(float(v)) for v in row)}\n")
    with open(os.path.join(directory, "edges.tsv"), "w", encoding="utf-8") as fh:
        for s, r, d in edges:
            if s <= d:  # both directions are present (checked above); emit one
                fh.write(f"{s}\t{d}\t{r}\n")
    with open(os.path.join(directory, "labels.tsv"), "w", encoding="utf-8") as fh:
        for i, cls in enumerate(ds.labels):
            if cls >= 0:
                fh.write(f"{i}\t{int(cls)}\n")
    with open(os.path.join(directory, "splits.tsv"), "w", encoding="utf-8") as fh:
        for i, s in enumerate(ds.split):
            if s != SPLIT_NONE:
                fh.write(f"{i}\t{SPLIT_TOKENS[int(s)]}\n")


# ---------------------------------------------------------------------------
# knowledge graph I/O


def _read_triples(path: str) -> list[tuple[str, str, str]]:
    triples = []
    for lineno, line in _read_lines(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise GraphFormatError("expected head<TAB>relation<TAB>tail", path, lineno)
        triples.append(tuple(parts))
    return triples


def load_kg_dataset(directory: str) -> KgDataset:
    """Load a KG from train/valid/test triple files.

    String ids are interned in first-appearance order (train first), so
    entities and relations first seen in valid/test get ids too. The graph
    holds every train triple in both directions: relation ``k`` gets a
    reverse twin ``k + num_relations``.
    """
    raw = {name: _read_triples(os.path.join(directory, f"{name}.txt")) for name in ("train", "valid", "test")}

    entity_ids: dict[str, int] = {}
    relation_ids: dict[str, int] = {}
    for name in ("train", "valid", "test"):
        for h, r, t in raw[name]:
            for ent in (h, t):
                if ent not in entity_ids:
                    entity_ids[ent] = len(entity_ids)
            if r not in relation_ids:
                relation_ids[r] = len(relation_ids)

    def to_ids(triples):
        if not triples:
            return np.zeros((0, 3), dtype=np.int64)
        return np.array(
            [(entity_ids[h], relation_ids[r], entity_ids[t]) for h, r, t in triples],
            dtype=np.int64,
        )

    train, valid, test = (to_ids(raw[n]) for n in ("train", "valid", "test"))
    n_rel = len(relation_ids)

    try:
        graph = Graph(len(entity_ids), 2 * n_rel, kg_queries(train, n_rel))
    except GraphFormatError as exc:
        raise GraphFormatError(str(exc), os.path.join(directory, "train.txt")) from None

    filter_index: dict[tuple[int, int], set[int]] = {}
    for e, q, answer in kg_queries(np.concatenate([train, valid, test]), n_rel).tolist():
        filter_index.setdefault((e, q), set()).add(answer)

    # ids follow insertion order, so each dict's keys are its names by id
    return KgDataset(graph, list(entity_ids), list(relation_ids), train, valid, test, filter_index)


def save_kg_dataset(kg: KgDataset, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for name, triples in (("train", kg.train), ("valid", kg.valid), ("test", kg.test)):
        with open(os.path.join(directory, f"{name}.txt"), "w", encoding="utf-8") as fh:
            for h, r, t in triples:
                fh.write(f"{kg.entity_names[h]}\t{kg.relation_names[r]}\t{kg.entity_names[t]}\n")

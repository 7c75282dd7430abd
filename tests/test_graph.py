import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from magna.graph import (
    SPLIT_TEST,
    SPLIT_TRAIN,
    SPLIT_VAL,
    Graph,
    GraphFormatError,
    NodeDataset,
    kg_queries,
    load_kg_dataset,
    load_node_dataset,
    save_kg_dataset,
    save_node_dataset,
)

from conftest import require_dataset
from helpers import path_graph, star_graph


def write_node_dataset(directory, features, edges, labels, splits):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "features.tsv"), "w") as fh:
        for nid, vec in features:
            fh.write(f"{nid}\t{','.join(str(v) for v in vec)}\n")
    with open(os.path.join(directory, "edges.tsv"), "w") as fh:
        for row in edges:
            fh.write("\t".join(str(v) for v in row) + "\n")
    with open(os.path.join(directory, "labels.tsv"), "w") as fh:
        for nid, cls in labels:
            fh.write(f"{nid}\t{cls}\n")
    with open(os.path.join(directory, "splits.tsv"), "w") as fh:
        for nid, name in splits:
            fh.write(f"{nid}\t{name}\n")


def toy_dataset(tmp_path, edges=((0, 1), (1, 2))):
    d = str(tmp_path / "ds")
    write_node_dataset(
        d,
        features=[(0, [1.0, 0.0]), (1, [0.0, 1.0]), (2, [1.0, 1.0])],
        edges=edges,
        labels=[(0, 0), (1, 1), (2, 0)],
        splits=[(0, "train"), (1, "val"), (2, "test")],
    )
    return d


def write_kg(directory, train, valid=(), test=()):
    os.makedirs(directory, exist_ok=True)
    for name, triples in (("train", train), ("valid", valid), ("test", test)):
        with open(os.path.join(directory, f"{name}.txt"), "w") as fh:
            for h, r, t in triples:
                fh.write(f"{h}\t{r}\t{t}\n")


# ---------------------------------------------------------------------------
# node datasets


def test_path_dataset_symmetrized(tmp_path):
    ds = load_node_dataset(toy_dataset(tmp_path))
    assert ds.graph.num_nodes == 3
    assert ds.graph.num_edges == 4
    assert ds.graph.num_relations == 1
    assert set(ds.graph.edge_list()) == {(0, 0, 1), (1, 0, 0), (1, 0, 2), (2, 0, 1)}
    assert ds.num_classes == 2
    assert ds.mask(SPLIT_TRAIN).sum() == 1


def test_node_id_out_of_range_reports_file(tmp_path):
    d = str(tmp_path / "bad")
    write_node_dataset(
        d,
        features=[(0, [1.0]), (1, [2.0])],
        edges=[(0, 1)],
        labels=[(99, 0)],
        splits=[],
    )
    # splits.tsv must exist even when empty
    open(os.path.join(d, "splits.tsv"), "w").close()
    with pytest.raises(GraphFormatError, match="node id out of range"):
        load_node_dataset(d)


def test_missing_file_is_reported(tmp_path):
    with pytest.raises(GraphFormatError, match="missing file"):
        load_node_dataset(str(tmp_path))


def test_ragged_features_rejected(tmp_path):
    d = str(tmp_path / "ragged")
    write_node_dataset(d, [(0, [1.0, 2.0]), (1, [3.0])], [(0, 1)], [(0, 0)], [])
    with pytest.raises(GraphFormatError, match="ragged"):
        load_node_dataset(d)


def test_unknown_split_token_rejected(tmp_path):
    d = str(tmp_path / "tok")
    write_node_dataset(d, [(0, [1.0]), (1, [1.0])], [(0, 1)], [(0, 0), (1, 0)], [(0, "dev")])
    with pytest.raises(GraphFormatError, match="unknown split token"):
        load_node_dataset(d)


def test_duplicate_edges_rejected(tmp_path):
    d = str(tmp_path / "dup")
    write_node_dataset(
        d, [(0, [1.0]), (1, [1.0])], [(0, 1), (1, 0)], [(0, 0), (1, 0)], []
    )
    with pytest.raises(GraphFormatError, match="duplicate"):
        load_node_dataset(d)


def test_self_loop_row_not_duplicated(tmp_path):
    d = str(tmp_path / "selfloop")
    write_node_dataset(d, [(0, [1.0]), (1, [1.0])], [(0, 0), (0, 1)], [(0, 0), (1, 0)], [])
    ds = load_node_dataset(d)
    assert set(ds.graph.edge_list()) == {(0, 0, 0), (0, 0, 1), (1, 0, 0)}


def test_node_roundtrip(tmp_path):
    ds = load_node_dataset(toy_dataset(tmp_path))
    out = str(tmp_path / "copy")
    save_node_dataset(ds, out)
    again = load_node_dataset(out)
    assert again.graph.edge_list() == ds.graph.edge_list()
    assert again.graph.num_nodes == ds.graph.num_nodes
    assert np.array_equal(again.features, ds.features)
    assert np.array_equal(again.labels, ds.labels)
    assert np.array_equal(again.split, ds.split)


def test_save_rejects_one_way_edge(tmp_path):
    one_way = NodeDataset(Graph(2, 1, [(1, 0, 0)]), np.eye(2), np.array([0, 1]),
                          np.array([SPLIT_TRAIN, SPLIT_VAL]), num_classes=2)
    out = tmp_path / "one_way"
    with pytest.raises(GraphFormatError, match=r"edge \(1, 0, 0\) has no reverse"):
        save_node_dataset(one_way, str(out))
    assert not out.exists()


def test_cora_sizes():
    path = require_dataset("cora")
    ds = load_node_dataset(path)
    assert ds.graph.num_nodes == 2708
    # the conventional "5,429 edges" stat counts raw citation rows including
    # reciprocal pairs; a valid deduplicated undirected edge file holds 5,278
    with open(os.path.join(path, "edges.tsv")) as fh:
        assert sum(1 for line in fh if line.strip()) == 5278
    assert ds.num_classes == 7
    assert ds.features.shape[1] == 1433
    assert ds.mask(SPLIT_TRAIN).sum() == 140
    assert ds.mask(SPLIT_VAL).sum() == 500
    assert ds.mask(SPLIT_TEST).sum() == 1000


# ---------------------------------------------------------------------------
# graph indexing


def test_incoming_segment_path():
    g = path_graph(3)
    seg = range(g.in_indptr[1], g.in_indptr[2])
    assert {(int(g.src[e]), int(g.dst[e])) for e in seg} == {(0, 1), (2, 1)}


def test_incoming_segment_isolated_node():
    g = Graph(3, 1, [(0, 0, 1), (1, 0, 0)])
    assert np.diff(g.in_indptr)[2] == 0


def test_incoming_segment_star_center():
    g = star_graph(5)
    assert np.diff(g.in_indptr)[0] == 5


def test_segment_lengths_partition_edges():
    g = star_graph(4)
    assert np.diff(g.in_indptr).sum() == g.num_edges


def test_with_self_loops_repairs_isolated_nodes():
    g = Graph(3, 1, [(0, 0, 1), (1, 0, 0)])
    fixed = g.with_self_loops()
    assert (2, 0, 2) in fixed.edge_list()
    assert fixed.num_edges == 3
    assert (np.diff(fixed.in_indptr) >= 1).all()
    # idempotent on full graphs
    assert fixed.with_self_loops() is fixed


@given(st.integers(2, 30), st.integers(0, 10_000))
def test_graph_segments_partition_random(n, seed):
    rng = np.random.default_rng(seed)
    edges = set()
    for _ in range(n * 2):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        edges.add((u, 0, v))
    edges = sorted(edges)
    g = Graph(n, 1, edges)
    # the same edges as a shuffled array build the same graph
    shuffled = Graph(n, 1, np.array(edges)[rng.permutation(len(edges))])
    for name in ("src", "rel", "dst", "in_indptr"):
        assert np.array_equal(getattr(shuffled, name), getattr(g, name))
    assert np.diff(g.in_indptr).sum() == g.num_edges
    for node in range(n):
        assert (g.dst[g.in_indptr[node]:g.in_indptr[node + 1]] == node).all()
    repeated = edges + [edges[int(rng.integers(len(edges)))]]
    with pytest.raises(GraphFormatError, match="duplicate"):
        Graph(n, 1, repeated)
    with pytest.raises(ValueError, match="rows"):
        Graph(n, 1, np.array(edges)[:, ::2])  # (src, dst) pairs, no relation column


# ---------------------------------------------------------------------------
# knowledge graphs


def test_single_triple_reverse_augmentation(tmp_path):
    d = str(tmp_path / "kg")
    write_kg(d, [("a", "r", "b")])
    kg = load_kg_dataset(d)
    assert kg.num_entities == 2
    assert kg.num_relations == 2
    assert set(kg.graph.edge_list()) == {(0, 0, 1), (1, 1, 0)}


def test_filter_index_over_all_splits(tmp_path):
    d = str(tmp_path / "kg2")
    write_kg(d, [("a", "r", "b")], valid=[("a", "r", "c")], test=[("a", "r", "d")])
    kg = load_kg_dataset(d)
    a = kg.entity_names.index("a")
    r = kg.relation_names.index("r")
    tails = {kg.entity_names[t] for t in kg.filter_index[(a, r)]}
    assert tails == {"b", "c", "d"}


def test_reverse_of_reverse_is_original(tmp_path):
    d = str(tmp_path / "kg3")
    write_kg(d, [("a", "r1", "b"), ("b", "r2", "c")])
    kg = load_kg_dataset(d)
    n_rel = len(kg.relation_names)
    queries = kg_queries(kg.train, n_rel)
    assert np.array_equal(queries[0::2], kg.train)
    # reversing a reverse row and dropping the offset gives the triple back
    assert np.array_equal(queries[1::2, ::-1] - [0, n_rel, 0], kg.train)
    # every train edge has its reverse in the graph
    edges = set(kg.graph.edge_list())
    for h, r, t in kg.train:
        assert (int(h), int(r), int(t)) in edges
        assert (int(t), int(r) + n_rel, int(h)) in edges


def test_entity_first_seen_in_valid_is_interned(tmp_path):
    d = str(tmp_path / "kg4")
    write_kg(d, [("a", "r", "b")], valid=[("a", "r", "zzz")])
    kg = load_kg_dataset(d)
    assert kg.num_entities == 3
    assert kg.entity_names == ["a", "b", "zzz"]
    assert kg.valid.tolist() == [[0, 0, 2]]


def test_malformed_kg_line(tmp_path):
    d = str(tmp_path / "kg5")
    os.makedirs(d)
    with open(os.path.join(d, "train.txt"), "w") as fh:
        fh.write("a\tr\n")
    for name in ("valid", "test"):
        open(os.path.join(d, f"{name}.txt"), "w").close()
    with pytest.raises(GraphFormatError, match="train.txt:1"):
        load_kg_dataset(d)
    with open(os.path.join(d, "train.txt"), "w") as fh:
        fh.write("a\tr\tb\nb\tr\tc\na\tr\tb\n")
    with pytest.raises(GraphFormatError, match="train.txt: duplicate"):
        load_kg_dataset(d)


def test_kg_roundtrip(tmp_path):
    d = str(tmp_path / "kg6")
    write_kg(
        d,
        [("a", "r1", "b"), ("b", "r2", "c"), ("a", "r1", "c")],
        valid=[("c", "r2", "a")],
        test=[("b", "r1", "a")],
    )
    kg = load_kg_dataset(d)
    out = str(tmp_path / "kg6_copy")
    save_kg_dataset(kg, out)
    again = load_kg_dataset(out)
    assert again.graph.edge_list() == kg.graph.edge_list()
    assert again.entity_names == kg.entity_names
    assert np.array_equal(again.train, kg.train)
    assert np.array_equal(again.valid, kg.valid)
    assert np.array_equal(again.test, kg.test)
    assert again.filter_index == kg.filter_index


def test_wn18rr_sizes():
    path = require_dataset("wn18rr")
    kg = load_kg_dataset(path)
    assert kg.num_entities == 40943
    assert len(kg.relation_names) == 11
    assert kg.num_relations == 22
    assert len(kg.train) == 86835


@given(st.integers(2, 12), st.integers(0, 5000))
def test_node_dataset_roundtrip_random(n, seed):
    rng = np.random.default_rng(seed)
    from magna.graph import NodeDataset, load_node_dataset
    import tempfile

    edges = set()
    for v in range(1, n):
        u = int(rng.integers(v))
        edges.add((u, v))
    directed = []
    for u, v in sorted(edges):
        directed.append((u, 0, v))
        if u != v:
            directed.append((v, 0, u))
    graph = Graph(n, 1, directed)
    labels = rng.integers(0, 3, size=n)
    split = rng.integers(-1, 3, size=n)
    ds = NodeDataset(graph, rng.normal(size=(n, 3)), labels, split, num_classes=3)
    with tempfile.TemporaryDirectory() as tmp:
        save_node_dataset(ds, tmp)
        again = load_node_dataset(tmp)
    assert again.graph.edge_list() == ds.graph.edge_list()
    assert np.array_equal(again.features, ds.features)
    assert np.array_equal(again.labels, ds.labels)
    assert np.array_equal(again.split, ds.split)

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
    kg_answer_index,
    kg_known_answers,
    kg_queries,
    load_kg_dataset,
    load_node_dataset,
    save_kg_dataset,
    save_node_dataset,
)

from conftest import require_dataset
from helpers import answer_sets, known_set, path_graph, peak_traced_bytes, star_graph


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
    # (edges.tsv rows, line of the first repeat): the same pair either way
    # round, a repeated self loop, the same pair and relation with a column
    for i, (edges, line) in enumerate([([(0, 1), (1, 0)], 2),
                                       ([(0, 0), (0, 1), (1, 2), (0, 0)], 4),
                                       ([(0, 1, 1), (0, 1), (1, 0, 1)], 3)]):
        d = str(tmp_path / f"dup{i}")
        write_node_dataset(
            d, [(0, [1.0]), (1, [1.0]), (2, [1.0])], edges, [(0, 0), (1, 0), (2, 0)], []
        )
        with pytest.raises(GraphFormatError, match=rf"edges.tsv:{line}: duplicate \(src, rel, dst\) edge$"):
            load_node_dataset(d)


def test_duplicate_label_row_rejected(tmp_path):
    d = str(tmp_path / "labels")
    write_node_dataset(d, [(0, [1.0]), (1, [1.0])], [(0, 1)], [(0, 0), (1, 1), (0, 0)], [])
    with pytest.raises(GraphFormatError, match="labels.tsv:3: node 0 labelled more than once$"):
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
# features.tsv: faults, accepted syntax and bits


def write_features(directory, text):
    """A node dataset whose features.tsv holds ``text``; its other files are
    empty, which loads as a graph without edges, labels or splits."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "features.tsv"), "w", encoding="utf-8") as fh:
        fh.write(text)
    for name in ("edges.tsv", "labels.tsv", "splits.tsv"):
        open(os.path.join(directory, name), "w").close()
    return os.path.join(directory, "features.tsv")


def per_token_features(path):
    """Reference parse: ``float()`` on every token, rows ordered by node id."""
    rows = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                nid, values = line.rstrip("\n").split("\t")
                rows[int(nid)] = [float(v) for v in values.split(",")]
    return np.array([rows[i] for i in range(len(rows))], dtype=np.float64)


# (file text, line of the fault or None, message); blank lines count
FEATURE_FAULTS = [
    ("0\t1.0\n1\t2.0\t3.0\n", 2, "expected node_id<TAB>values"),
    ("0\t1.0\n1 2.0\n", 2, "expected node_id<TAB>values"),
    ("0\t1.0\n\nx\t2.0\n", 3, "bad node id 'x'"),
    ("0\t1.0\n1\t2.0,abc\n", 2, "bad feature value"),
    ("0\t1.0\n\n\n1\t\n", 4, "bad feature value"),
    ("0\t\n", 1, "bad feature value"),
    ("0\t1.0\n1\t  \n", 2, "bad feature value"),
    ("0\t1.0,2.0\n1\t3.0\n", 2, "ragged feature row (1 values, expected 2)"),
    ("0\t1.0\n1\t2.0,3.0\n", 2, "ragged feature row (2 values, expected 1)"),
    ("0\t1.0\n\n0\t2.0\n", 3, "duplicate node id 0"),
    ("1\t1.0\n2\t2.0\n", None, "node ids must be exactly 0..N-1"),
    ("0\t1.0\n2\t2.0\n", None, "node ids must be exactly 0..N-1"),
    ("\n\n", None, "no feature rows"),
    ("", None, "no feature rows"),
    # the first fault in file order wins, whatever its kind
    ("0\t1.0,x\n1\t1.0\t2\n", 1, "bad feature value"),
    ("0\t1,2\n0\t1,2\n1\t3\n", 2, "duplicate node id 0"),
    ("0\t1,2\n1\t1\n1\tx\n", 2, "ragged feature row (1 values, expected 2)"),
]


@pytest.mark.parametrize("text, line, message", FEATURE_FAULTS)
def test_feature_faults_name_their_line(tmp_path, text, line, message):
    path = write_features(str(tmp_path), text)
    with pytest.raises(GraphFormatError) as info:
        load_node_dataset(str(tmp_path))
    where = path if line is None else f"{path}:{line}"
    assert str(info.value) == f"{where}: {message}"


# tokens float() accepts: signed zero, the least subnormal, the specials,
# surrounding whitespace, underscores and full-width and Arabic-Indic digits
ACCEPTED_TOKENS = ["-0.0", "5e-324", "inf", "-inf", "nan", " 1.5", "1.5 ", "1_0.5",
                   "１２", "١.5", "1e500", " 1.5\x85"]


@pytest.mark.parametrize("token", ACCEPTED_TOKENS)
def test_feature_tokens_load_as_float_does(tmp_path, token):
    write_features(str(tmp_path), f"1\t{token},2.0\n0\t1.0,{token}\n")
    got = load_node_dataset(str(tmp_path)).features
    expected = np.array([[1.0, float(token)], [float(token), 2.0]])
    assert got.tobytes() == expected.tobytes()


# tokens float() rejects; \x1c-\x1f are str.isspace() but float() does not
# strip them
REJECTED_TOKENS = ["1#2", "#", "0x1p3", "", "1.5\x00", "1 .5", "1+0j", "\"1.5\"",
                   "\x1c1.5", "1.5\x1d", "\x1e", "1\x1f"]


@pytest.mark.parametrize("token", REJECTED_TOKENS)
def test_feature_tokens_float_rejects_are_faults(tmp_path, token):
    path = write_features(str(tmp_path), f"0\t1.0,2.0\n\n1\t1.0,{token}\n")
    with pytest.raises(GraphFormatError) as info:
        load_node_dataset(str(tmp_path))
    assert str(info.value) == f"{path}:3: bad feature value"


@given(st.lists(st.lists(st.floats(width=64), min_size=3, max_size=3), min_size=1, max_size=6),
       st.randoms(use_true_random=False))
def test_features_round_trip_float_bits(rows, random):
    import tempfile

    ids = list(range(len(rows)))
    random.shuffle(ids)
    with tempfile.TemporaryDirectory() as tmp:
        path = write_features(tmp, "".join(f"{i}\t{','.join(map(repr, rows[i]))}\n" for i in ids))
        got = load_node_dataset(tmp).features
        expected = per_token_features(path)
    assert got.tobytes() == expected.tobytes()
    # repr round-trips every float but a NaN's payload
    assert np.array_equal(got, np.array(rows), equal_nan=True)


@pytest.fixture(scope="module")
def cora_shaped_features(tmp_path_factory):
    """A seeded Cora-shaped features.tsv: 2,708 rows of 1,433 values, about
    1.3% nonzero, each row normalized to sum 1."""
    rng = np.random.default_rng(2708)
    lines = []
    for i in range(2708):
        hot = np.unique(rng.integers(0, 1433, size=19))
        row = np.full(1433, "0.0", dtype=object)
        row[hot] = repr(1.0 / len(hot))
        lines.append(f"{i}\t{','.join(row)}\n")
    directory = str(tmp_path_factory.mktemp("cora_shaped"))
    return directory, write_features(directory, "".join(lines))


def test_cora_shaped_features_have_float_bits(cora_shaped_features):
    directory, path = cora_shaped_features
    features = load_node_dataset(directory).features
    assert features.shape == (2708, 1433)
    assert 0.012 < np.count_nonzero(features) / features.size < 0.014
    assert features.tobytes() == per_token_features(path).tobytes()


def test_cora_shaped_load_memory(cora_shaped_features):
    # the result takes 31 MB and the file's text, held once as split fields,
    # 16 MB; a second copy of the text would break the bound, and a float
    # object per value would add 94 MB more
    peak = peak_traced_bytes(lambda: load_node_dataset(cora_shaped_features[0]))
    assert peak < 56 * 2**20


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
    tails = {kg.entity_names[t] for t in known_set(kg, a, r)}
    assert tails == {"b", "c", "d"}


# (train, valid, test): a triple in every split at once, with "d" seen only
# as a tail; then an empty test split
ANSWER_INDEX_KGS = [
    ([("a", "r", "b"), ("a", "r", "c"), ("b", "s", "d")],
     [("a", "r", "c"), ("c", "s", "d")], [("a", "r", "c"), ("a", "s", "d")]),
    ([("a", "r", "b"), ("b", "r", "a"), ("c", "s", "a")], [("a", "r", "c")], []),
]


@pytest.mark.parametrize("train, valid, test", ANSWER_INDEX_KGS)
def test_answer_index_equals_dict_of_sets(tmp_path, train, valid, test):
    write_kg(str(tmp_path), train, valid, test)
    kg = load_kg_dataset(str(tmp_path))
    n_rel = len(kg.relation_names)
    everything = np.concatenate([kg.train, kg.valid, kg.test])
    for triples, index in ((everything, kg.answer_index),
                           *((split, kg_answer_index(split, n_rel))
                             for split in (kg.train, kg.valid, kg.test))):
        keys, indptr, answers = index
        assert np.all(np.diff(keys) > 0) and indptr[0] == 0 and indptr[-1] == len(answers)
        got = {divmod(key, kg.num_relations): answers[lo:hi].tolist()
               for key, lo, hi in zip(keys.tolist(), indptr[:-1].tolist(), indptr[1:].tolist())}
        assert got == {key: sorted(tails) for key, tails in answer_sets(triples, n_rel).items()}
    # the lookup returns each key's answers in the order of the keys asked
    keys = kg.answer_index[0][::-1]
    rows, cols = kg_known_answers(kg.answer_index, keys)
    assert list(zip(rows.tolist(), cols.tolist())) == [
        (i, a) for i, key in enumerate(keys.tolist())
        for a in sorted(known_set(kg, *divmod(key, kg.num_relations)))]


def test_known_answers_of_a_key_not_in_the_index():
    # entity 0 is in no triple, so its keys 0 and 1 are not in the index
    index = kg_answer_index(np.array([[1, 0, 2], [2, 0, 3]]), 1)
    assert index[0].tolist() == [2, 4, 5, 7]
    # below, between and above the keys in the index, alone and among them
    missing = np.array([0, 1, 3, 6, 8])
    rows, cols = kg_known_answers(index, missing)
    assert rows.size == 0 and cols.size == 0
    rows, cols = kg_known_answers(index, np.array([8, 2, 0, 5, 3]))
    assert rows.tolist() == [1, 3] and cols.tolist() == [2, 1]
    # an index over no triples holds no keys
    empty = kg_answer_index(np.zeros((0, 3), dtype=np.int64), 1)
    assert [part.size for part in empty] == [0, 1, 0]
    assert kg_known_answers(empty, missing)[0].size == 0


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
    with pytest.raises(GraphFormatError, match=r"train.txt:3: duplicate \(src, rel, dst\) edge$"):
        load_kg_dataset(d)


kg_names = st.sampled_from(["a", "b", "c", "d", "e"])
kg_triple_lists = st.lists(st.tuples(kg_names, st.sampled_from(["r", "s", "t"]), kg_names), max_size=6)


# train repeats no triple (the loader rejects that); valid and test may
@given(kg_triple_lists.map(lambda rows: list(dict.fromkeys(rows))), kg_triple_lists, kg_triple_lists)
def test_kg_ids_follow_first_appearance(train, valid, test):
    import tempfile

    # the reference: every name numbered at its first use, train then valid
    # then test, each triple's head before its tail
    entity_ids, relation_ids = {}, {}
    for h, r, t in train + valid + test:
        for name in (h, t):
            if name not in entity_ids:
                entity_ids[name] = len(entity_ids)
        if r not in relation_ids:
            relation_ids[r] = len(relation_ids)
    with tempfile.TemporaryDirectory() as tmp:
        write_kg(tmp, train, valid, test)
        kg = load_kg_dataset(tmp)
    assert kg.entity_names == list(entity_ids) and kg.relation_names == list(relation_ids)
    for got, rows in ((kg.train, train), (kg.valid, valid), (kg.test, test)):
        assert got.dtype == np.int64 and got.shape == (len(rows), 3)
        assert got.tolist() == [[entity_ids[h], relation_ids[r], entity_ids[t]] for h, r, t in rows]


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
    assert all(np.array_equal(a, b) for a, b in zip(again.answer_index, kg.answer_index))


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

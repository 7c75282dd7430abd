"""Seeded dataset generators for the benchmark workloads.

Each generator draws everything from one ``numpy.random.Generator`` and
writes its dataset in the repository's on-disk formats (see
``magna.graph``): a node-classification TSV directory or a KG triple
directory. The same seed always gives byte-identical files. Each returns a
small ``truth`` dict of the generator's own view of the data, which the
workloads use to check the loaded shapes and to rank triples independently
of the loader.
"""

from __future__ import annotations

import os

import numpy as np

# Cora: 2,708 papers, 5,278 undirected citation edges, 1,433 binary word
# features (about 18 words per paper), 7 classes, Planetoid 140/500/1,000 split.
CORA_SHAPE = dict(nodes=2708, edges=5278, features=1433, classes=7,
                  words_per_node=18, train_per_class=20, val=500, test=1000)
CORA_CLASS_SHARE = np.array([351, 217, 418, 818, 426, 298, 180]) / 2708.0
HOMOPHILY = 0.8   # Cora's edge homophily is about 0.81

# WN18RR train-split relation counts, most frequent first (they sum to 86,835).
WN18RR_RELATION_COUNTS = (34796, 29715, 7402, 4816, 3116, 2921, 1299, 1138, 923, 629, 80)
WN18RR_SHAPE = dict(entities=40943, train=86835, valid=3034, test=3134)


def scaled(shape: dict, factor: float) -> dict:
    """The same shape with every count scaled by ``factor`` (at least 1)."""
    return {k: max(1, int(round(v * factor))) for k, v in shape.items()}


def _zipf_weights(rng: np.random.Generator, n: int, exponent: float) -> np.ndarray:
    """Popularity weights for ``n`` items, Zipf-ranked in a random order."""
    w = 1.0 / np.arange(1, n + 1) ** exponent
    rng.shuffle(w)
    return w / w.sum()


def _unique_pairs(pairs: np.ndarray, n: int) -> np.ndarray:
    """First occurrences of undirected pairs (no self pairs), in input order."""
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
    _, first = np.unique(lo * n + hi, return_index=True)
    first.sort()
    return np.stack([lo[first], hi[first]], axis=1)


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


# ---------------------------------------------------------------------------
# node classification


def node_dataset(directory: str, rng: np.random.Generator, shape: dict = CORA_SHAPE) -> dict:
    """A homophilous Cora-shaped node task with sparse binary features,
    row-normalized and written as ``scripts/fetch_cora.py`` writes Cora.

    Edges start from a random spanning tree (so no node lacks an incoming
    edge and no self loop gets added), then extra edges join a node to one
    of its own class with probability ``HOMOPHILY``. Each class favours its
    own slice of the vocabulary.
    """
    n, m, f, c = shape["nodes"], shape["edges"], shape["features"], shape["classes"]
    share = CORA_CLASS_SHARE if c == len(CORA_CLASS_SHARE) else np.full(c, 1.0 / c)
    labels = rng.choice(c, size=n, p=share)
    labels[:c] = np.arange(c)  # every class present even at tiny sizes
    popularity = _zipf_weights(rng, n, 0.8)

    by_class = [np.flatnonzero(labels == k) for k in range(c)]
    order = rng.permutation(n)
    tree = np.stack([order[1:], order[rng.integers(0, np.arange(1, n))]], axis=1)
    pairs = _unique_pairs(tree, n)
    while len(pairs) < m:
        batch = 2 * (m - len(pairs)) + 16
        u = rng.choice(n, size=batch, p=popularity)
        v = rng.choice(n, size=batch, p=popularity)
        same = rng.random(batch) < HOMOPHILY
        for k in range(c):
            rows = same & (labels[u] == k)
            v[rows] = rng.choice(by_class[k], size=int(rows.sum()))
        pairs = _unique_pairs(np.concatenate([pairs, np.stack([u, v], axis=1)]), n)
    pairs = pairs[:m]

    words = shape["words_per_node"]
    vocab = rng.permutation(f)
    slices = np.array_split(vocab, c)
    features = np.zeros((n, f), dtype=np.uint8)
    for i in range(n):
        own = rng.random(words) < 0.7
        cols = np.where(own, rng.choice(slices[labels[i]], size=words), rng.integers(0, f, size=words))
        features[i, cols] = 1

    split = np.full(n, "", dtype=object)
    train = np.concatenate([rng.permutation(idx)[: shape["train_per_class"]] for idx in by_class])
    rest = rng.permutation(np.setdiff1d(np.arange(n), train))
    split[train] = "train"
    split[rest[: shape["val"]]] = "val"
    split[rest[shape["val"] : shape["val"] + shape["test"]]] = "test"

    os.makedirs(directory, exist_ok=True)
    _write_lines(os.path.join(directory, "features.tsv"),
                 (f"{i}\t{_normalized_row(row)}\n" for i, row in enumerate(features)))
    _write_lines(os.path.join(directory, "edges.tsv"), (f"{u}\t{v}\n" for u, v in pairs))
    _write_lines(os.path.join(directory, "labels.tsv"), (f"{i}\t{y}\n" for i, y in enumerate(labels)))
    _write_lines(os.path.join(directory, "splits.tsv"),
                 (f"{i}\t{s}\n" for i, s in enumerate(split) if s))
    return {
        "nodes": n,
        "directed_edges": 2 * m,
        "features": f,
        "classes": c,
        "feature_nonzeros": int(features.sum()),
        "split_sizes": (len(train), shape["val"], shape["test"]),
    }


def _normalized_row(row: np.ndarray) -> str:
    text = np.full(row.shape[0], "0.0", dtype=object)
    hot = np.flatnonzero(row)
    text[hot] = repr(1.0 / max(len(hot), 1))
    return ",".join(text)


def graph_dataset(directory: str, rng: np.random.Generator, nodes: int, extra_edges: int) -> dict:
    """A connected symmetric graph (random tree plus extra edges) written as
    a node dataset with one constant feature; only its edges matter."""
    tree = np.stack([np.arange(1, nodes), rng.integers(0, np.arange(1, nodes))], axis=1)
    pairs = _unique_pairs(tree, nodes)
    while len(pairs) < nodes - 1 + extra_edges:
        pairs = _unique_pairs(np.concatenate([pairs, rng.integers(0, nodes, size=(extra_edges, 2))]), nodes)
    pairs = pairs[: nodes - 1 + extra_edges]
    os.makedirs(directory, exist_ok=True)
    _write_lines(os.path.join(directory, "features.tsv"), (f"{i}\t1\n" for i in range(nodes)))
    _write_lines(os.path.join(directory, "edges.tsv"), (f"{u}\t{v}\n" for u, v in pairs))
    _write_lines(os.path.join(directory, "labels.tsv"), (f"{i}\t0\n" for i in range(nodes)))
    _write_lines(os.path.join(directory, "splits.tsv"), (f"{i}\ttrain\n" for i in range(nodes)))
    return {"nodes": nodes, "directed_edges": 2 * len(pairs)}


# ---------------------------------------------------------------------------
# knowledge graph


def _shares(counts, total: int) -> np.ndarray:
    """Split ``total`` in proportion to ``counts``, at least one each when
    ``total`` allows; the remainder goes to the largest."""
    counts = np.asarray(counts, dtype=np.float64)
    out = np.floor(counts / counts.sum() * total).astype(np.int64)
    if total >= len(counts):
        out = np.maximum(out, 1)
    out[int(np.argmax(counts))] += total - out.sum()
    return out


def _distinct_triples(rng, rel_counts, popularity, seen: set) -> np.ndarray:
    """Triples (h, r, t) with h != t and none already in ``seen`` (updated in
    place), ``rel_counts[r]`` of relation r, entities by ``popularity``."""
    n, k = len(popularity), len(rel_counts)
    pending = np.repeat(np.arange(k), rel_counts)
    rng.shuffle(pending)
    out = []
    while len(pending):
        h = rng.choice(n, size=len(pending), p=popularity)
        t = rng.choice(n, size=len(pending), p=popularity)
        rejected = []
        for hh, rr, tt in zip(h.tolist(), pending.tolist(), t.tolist()):
            key = (hh * k + rr) * n + tt
            if hh != tt and key not in seen:
                seen.add(key)
                out.append((hh, rr, tt))
            else:
                rejected.append(rr)
        pending = np.array(rejected, dtype=np.int64)
    return np.array(out, dtype=np.int64).reshape(-1, 3)


def kg_dataset(directory: str, rng: np.random.Generator, shape: dict = WN18RR_SHAPE,
               relation_counts=WN18RR_RELATION_COUNTS) -> dict:
    """A WN18RR-shaped KG: Zipf-skewed entity popularity, WN18RR's relation
    skew, and every entity used in the train split. Valid and test triples
    are distinct from train and from each other."""
    n, k = shape["entities"], len(relation_counts)
    popularity = _zipf_weights(rng, n, 1.0)

    # the first ceil(n/2) train triples use every entity once
    order = rng.permutation(n)
    half = n // 2
    heads, tails = order[:half], order[half : 2 * half]
    if n % 2:
        heads, tails = np.append(heads, order[-1]), np.append(tails, order[0])
    cover_rels = rng.choice(k, size=len(heads), p=_shares(relation_counts, 10**6) / 10**6)
    cover = np.stack([heads, cover_rels, tails], axis=1)
    seen = {(h * k + r) * n + t for h, r, t in cover.tolist()}

    want = _shares(relation_counts, shape["train"])
    left = np.maximum(want - np.bincount(cover_rels, minlength=k), 0)
    left = _shares(left, shape["train"] - len(cover))
    train = np.concatenate([cover, _distinct_triples(rng, left, popularity, seen)])
    valid = _distinct_triples(rng, _shares(want, shape["valid"]), popularity, seen)
    test = _distinct_triples(rng, _shares(want, shape["test"]), popularity, seen)

    os.makedirs(directory, exist_ok=True)
    names = [f"e{i:05d}" for i in range(n)]
    rel_names = [f"_rel{r:02d}" for r in range(k)]
    for split, triples in (("train", train), ("valid", valid), ("test", test)):
        _write_lines(os.path.join(directory, f"{split}.txt"),
                     (f"{names[h]}\t{rel_names[r]}\t{names[t]}\n" for h, r, t in triples.tolist()))
    return {"entities": n, "relations": k, "names": names, "relation_names": rel_names,
            "train": train, "valid": valid, "test": test}

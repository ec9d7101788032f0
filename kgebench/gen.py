"""Seeded synthetic knowledge graphs written as train/valid/test TSV files.

Heads, tails and relations are drawn from Zipf-like popularity laws over
seeded permutations, so a few entities are very popular and the filter
lists of filtered ranking are heavy-tailed. The exponents are chosen, not
fitted to degree or filter-size statistics of FB15k-237 or WN18RR, so how
closely the skew matches those graphs is unverified;
:func:`filter_list_sizes` states the shape the generator gives. Every
entity appears in at least one split, so the loaded vocabulary has exactly
``n_entities`` entities. The same seed always gives byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPLITS = ("train", "valid", "test")
# Zipf exponents of head, tail and relation popularity, chosen rather than
# fitted to the real graphs. Tails are more skewed than heads, so
# head-direction filter lists have the heavier tail.
ZIPF_HEAD, ZIPF_TAIL, ZIPF_RELATION = 0.6, 0.9, 1.0


@dataclass(frozen=True)
class GraphShape:
    n_entities: int
    n_relations: int
    n_train: int
    n_valid: int
    n_test: int


# Entity and relation counts of the real graphs. The training workload sizes
# the train split only to set the steps per epoch, and puts the rest of the
# entities into valid/test so the vocabulary still has the full size.
SHAPES = {
    "wn18rr": GraphShape(40_943, 11, 400, 10_300, 10_300),
    "fb15k237": GraphShape(14_541, 237, 272_115, 17_535, 20_466),
}


def _zipf_weights(n: int, exponent: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    return w / w.sum()


def generate_triples(shape: GraphShape, seed: int) -> dict[str, np.ndarray]:
    """Distinct (head, relation, tail) id triples for each split."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0x6B6765,)))
    n, total = shape.n_entities, shape.n_train + shape.n_valid + shape.n_test
    half = (n + 1) // 2
    if total < half:
        raise ValueError(f"{total} triples cannot cover {n} entities")
    head_order = rng.permutation(n)
    tail_order = rng.permutation(n)
    rel_order = rng.permutation(shape.n_relations)
    # Over-draw so that dropping duplicates still leaves `total` triples.
    draw = int(total * 1.2) + 1024
    heads = head_order[rng.choice(n, draw, p=_zipf_weights(n, ZIPF_HEAD))]
    tails = tail_order[rng.choice(n, draw, p=_zipf_weights(n, ZIPF_TAIL))]
    rels = rel_order[
        rng.choice(shape.n_relations, draw, p=_zipf_weights(shape.n_relations, ZIPF_RELATION))
    ]
    # The first ceil(n/2) triples pair up a permutation of all entities, so
    # every entity occurs somewhere.
    cover = rng.permutation(n)
    heads[:half] = cover[:half]
    tails[: n - half] = cover[half:]
    keys = (heads * shape.n_relations + rels) * n + tails
    _, first = np.unique(keys, return_index=True)
    keep = np.sort(first)
    if len(keep) < total:
        raise ValueError(f"graph too dense: {len(keep)} distinct triples, need {total}")
    triples = np.stack([heads, rels, tails], axis=1)[keep[:total]]
    triples = triples[rng.permutation(total)]
    bounds = np.cumsum([shape.n_train, shape.n_valid])
    return dict(zip(SPLITS, np.split(triples, bounds)))


def write_graph(shape: GraphShape, seed: int, directory: str | Path) -> dict[str, np.ndarray]:
    """Write ``train.txt``/``valid.txt``/``test.txt`` and return the id triples."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    splits = generate_triples(shape, seed)
    for name, triples in splits.items():
        lines = [f"e{h}\tr{r}\te{t}\n" for h, r, t in triples.tolist()]
        with open(directory / f"{name}.txt", "w", encoding="utf-8") as fh:
            fh.write("".join(lines))
    return splits


def filter_list_sizes(splits: dict[str, np.ndarray], split: str = "test") -> dict:
    """Size of the filter list of each ranking query on ``split``, summarised.

    A tail query (h, r, ?) filters every t with (h, r, t) in any split, and
    a head query (?, r, t) every such h. Triples are distinct, so the size
    is the number of triples sharing the query's two known ids.
    """
    triples = np.concatenate([t for t in splits.values() if len(t)])
    n_rel = int(triples[:, 1].max()) + 1
    out = {}
    for direction, known in (("tail", 0), ("head", 2)):
        keys = triples[:, known] * n_rel + triples[:, 1]
        unique, counts = np.unique(keys, return_counts=True)
        query = splits[split]
        sizes = counts[np.searchsorted(unique, query[:, known] * n_rel + query[:, 1])]
        q = np.quantile(sizes, (0.5, 0.9, 0.99))
        out[direction] = {
            "mean": float(sizes.mean()), "p50": float(q[0]), "p90": float(q[1]),
            "p99": float(q[2]), "max": int(sizes.max()),
        }
    return out

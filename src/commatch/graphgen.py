"""Correlated graph pair generation and anonymized matching instances.

Randomness contract: every edge slot's draw is a pure function of
(seed, block id, slot index). Each community-pair block gets its own Philox
stream keyed by (seed, block id); within a block, slot k consumes the k-th
variate of that stream. Sampling is therefore reproducible regardless of
evaluation order or thread count.

Generation works directly in label space: the first graph's labeling is the
identity, so label a belongs to community layout.membership[a]. `anonymize`
then hides the second graph behind a seeded uniform relabeling and seals the
truth. Sealing is an API contract (the matcher consumes only the public
fields; scoring goes through `MatchingInstance.score`), not cryptography.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ParameterError, ValidationError
from .model import (CommunityLayout, PairedEdgeModel, _is_int, model_from_document,
                    read_json_document, validate_model)
from .permutation import Labeling, Permutation, from_one_based, to_one_based
from .typicality import block_slots

_SHUFFLE_TAG = 0x5487
_MASK64 = (1 << 64) - 1


def _philox(seed: int, tag: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, tag & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class LabeledGraph:
    """Symmetric matrix of edge values indexed by label pairs."""

    layout: CommunityLayout
    values: np.ndarray
    labeling: Labeling

    def edge(self, a: int, b: int) -> int:
        if a == b:
            raise ParameterError("no self loops")
        return int(self.values[a, b])


@dataclass(frozen=True)
class CorrelatedPair:
    g1: LabeledGraph
    g2: LabeledGraph
    model: PairedEdgeModel
    layout: CommunityLayout
    seed: int


def sample_pair(model: PairedEdgeModel, layout: CommunityLayout, seed: int) -> CorrelatedPair:
    """Draw a correlated pair; matched slots follow the model's joint law.

    Slot (a, b) with communities (i, j) draws one uniform variate from the
    (seed, block id) stream and inverts the CDF of joint[i, j]. Both graphs'
    values at that slot come from the same draw, which is what makes the two
    graphs correlated under the true (identity) alignment.
    """
    report = validate_model(model, layout)
    if not report.ok:
        raise ValidationError(report.violations)
    n, c, l = layout.n, layout.c, model.l
    v1 = np.zeros((n, n), dtype=np.int64)
    v2 = np.zeros((n, n), dtype=np.int64)
    groups = [layout.vertices_of(i) for i in range(c)]
    for i in range(c):
        for j in range(i, c):
            slots = block_slots(groups[i], groups[j] if j != i else None)
            if not slots:
                continue
            gen = _philox(seed, i * c + j)
            u = gen.random(len(slots))
            cdf = np.cumsum(model.joint[i, j].reshape(-1))
            idx = np.minimum(np.searchsorted(cdf, u, side="right"), l * l - 1)
            xs, ys = idx // l, idx % l
            for k, (a, b) in enumerate(slots):
                v1[a, b] = v1[b, a] = xs[k]
                v2[a, b] = v2[b, a] = ys[k]
    v1.setflags(write=False)
    v2.setflags(write=False)
    ident = Permutation.identity(n)
    return CorrelatedPair(
        g1=LabeledGraph(layout, v1, ident),
        g2=LabeledGraph(layout, v2, ident),
        model=model,
        layout=layout,
        seed=seed,
    )


@dataclass(frozen=True)
class MatchingInstance:
    """One anonymized matching problem.

    Public fields describe what the matcher may read. Under mode "csi" the
    community maps of both sides are exposed; under mode "wsi" only the sizes
    are. g2_values is indexed by anonymized vertex ids. The truth (anonymized
    vertex -> label) is sealed behind score()/sealed_truth().
    """

    n: int
    sizes: tuple[int, ...]
    model: PairedEdgeModel
    mode: str
    g1_values: np.ndarray
    g2_values: np.ndarray
    comm1_of_label: Optional[tuple[int, ...]]
    comm2_of_vertex: Optional[tuple[int, ...]]
    seed: int
    shuffle_seed: int
    _truth: Labeling = field(repr=False)

    @property
    def c(self) -> int:
        return len(self.sizes)

    def score(self, sigma_hat: Labeling) -> float:
        """Fraction of anonymized vertices whose label is recovered."""
        return vertex_accuracy(self._truth, sigma_hat)

    def sealed_truth(self) -> Labeling:
        """Scoring capability only; the matcher must not call this."""
        return self._truth


def anonymize(pair: CorrelatedPair, mode: str, shuffle_seed: int) -> MatchingInstance:
    """Relabel the second graph by a seeded uniform permutation, seal the truth.

    mode "csi": both community maps ride along. mode "wsi": only sizes.
    """
    if mode not in ("csi", "wsi"):
        raise ParameterError(f"mode must be 'csi' or 'wsi', got {mode!r}")
    n = pair.layout.n
    gen = _philox(shuffle_seed, _SHUFFLE_TAG)
    tau = tuple(int(x) for x in gen.permutation(n))  # anon id -> true label
    b = pair.g2.values[np.ix_(tau, tau)].copy()
    b.setflags(write=False)
    membership = pair.layout.membership
    csi = mode == "csi"
    return MatchingInstance(
        n=n,
        sizes=pair.layout.sizes,
        model=pair.model,
        mode=mode,
        g1_values=pair.g1.values,
        g2_values=b,
        comm1_of_label=membership if csi else None,
        comm2_of_vertex=tuple(membership[t] for t in tau) if csi else None,
        seed=pair.seed,
        shuffle_seed=shuffle_seed,
        _truth=Labeling(tau),
    )


def vertex_accuracy(truth: Labeling, guess: Labeling) -> float:
    if truth.n != guess.n:
        raise ParameterError("labelings have different sizes")
    agree = sum(1 for a, b in zip(truth.mapping, guess.mapping) if a == b)
    return agree / truth.n


# -- instance files -----------------------------------------------------------

def _ut_list(values: np.ndarray, n: int) -> list[int]:
    return [int(values[a, b]) for a in range(n) for b in range(a + 1, n)]


def _ut_matrix(flat: Sequence[int], n: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=np.int64)
    it = iter(flat)
    for a in range(n):
        for b in range(a + 1, n):
            m[a, b] = m[b, a] = int(next(it))
    m.setflags(write=False)
    return m


def save_instance(inst: MatchingInstance, path, extra: Optional[dict] = None) -> None:
    """Write an instance as JSON (row-major strict upper triangles, 1-based truth)."""
    layout = CommunityLayout.contiguous(inst.sizes)
    doc = {
        "l": inst.model.l,
        "communities": list(inst.sizes),
        "joint": inst.model.joint.tolist(),
        "seed": inst.seed,
        "shuffle_seed": inst.shuffle_seed,
        "mode": inst.mode,
        "g1_ut": _ut_list(inst.g1_values, inst.n),
        "g2_ut": _ut_list(inst.g2_values, inst.n),
        "comm1_of_label": list(layout.membership),
        "comm2_of_vertex": [layout.membership[t] for t in inst._truth.mapping],
        "truth": to_one_based(inst._truth),
    }
    if extra:
        doc.update(extra)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def _ut_violations(flat, key: str, n: int, l: int) -> list[str]:
    """Problems of one strict-upper-triangle edge value list (first found)."""
    want = n * (n - 1) // 2
    if not isinstance(flat, list) or len(flat) != want:
        got = f"{len(flat)} values" if isinstance(flat, list) else type(flat).__name__
        return [f"{key} must list {want} edge values for n={n}, got {got}"]
    for i, v in enumerate(flat):
        if not _is_int(v):
            return [f"{key}[{i}] is not an integer: {v!r}"]
        if not 0 <= v < l:
            return [f"{key}[{i}] = {v} is outside the edge alphabet [0, {l})"]
    return []


def _community_map_violations(raw: dict, key: str, sizes: tuple[int, ...]) -> list[str]:
    """Problems of one vertex -> community map read for csi matching."""
    if key not in raw:
        return [f"mode csi needs instance key: {key}"]
    m, c = raw[key], len(sizes)
    if not isinstance(m, list) or len(m) != sum(sizes):
        return [f"{key} must list one community per vertex (n={sum(sizes)})"]
    if any(not _is_int(v) or not 0 <= v < c for v in m):
        return [f"{key} entries must be community indices in [0, {c})"]
    counts = [m.count(i) for i in range(c)]
    if counts != list(sizes):
        return [f"{key} community sizes {counts} differ from communities {list(sizes)}"]
    return []


def load_instance(path, mode: Optional[str] = None) -> MatchingInstance:
    """Read an instance file; mode overrides the recorded one when given.

    Edge value lists and, under mode csi, both community maps are checked
    against n, the alphabet and the community sizes; every problem found is
    reported in one ValidationError.
    """
    raw = read_json_document(path, "instance")
    missing = [k for k in ("l", "communities", "joint", "g1_ut", "g2_ut", "truth") if k not in raw]
    if missing:
        raise ValidationError([f"missing instance key: {k}" for k in missing])
    model, layout = model_from_document(raw)
    n = layout.n
    use_mode = mode or raw.get("mode", "csi")
    if use_mode not in ("csi", "wsi"):
        raise ValidationError([f"bad mode {use_mode!r}"])
    csi = use_mode == "csi"
    problems = (_ut_violations(raw["g1_ut"], "g1_ut", n, model.l)
                + _ut_violations(raw["g2_ut"], "g2_ut", n, model.l))
    if csi:
        for key in ("comm1_of_label", "comm2_of_vertex"):
            problems += _community_map_violations(raw, key, layout.sizes)
    truth = raw["truth"]
    if (not isinstance(truth, list) or any(not _is_int(v) for v in truth)
            or sorted(truth) != list(range(1, n + 1))):
        problems.append(f"truth must list a permutation of 1..{n}")
    problems += [f"{key} must be an integer, got {raw[key]!r}"
                 for key in ("seed", "shuffle_seed") if key in raw and not _is_int(raw[key])]
    if problems:
        raise ValidationError(problems)
    return MatchingInstance(
        n=n,
        sizes=layout.sizes,
        model=model,
        mode=use_mode,
        g1_values=_ut_matrix(raw["g1_ut"], n),
        g2_values=_ut_matrix(raw["g2_ut"], n),
        comm1_of_label=tuple(raw["comm1_of_label"]) if csi else None,
        comm2_of_vertex=tuple(raw["comm2_of_vertex"]) if csi else None,
        seed=raw.get("seed", 0),
        shuffle_seed=raw.get("shuffle_seed", 0),
        _truth=from_one_based(truth),
    )

"""Correlated graph pair generation and anonymized matching instances.

Randomness contract: every edge slot's draw is a pure function of
(seed, block id, slot index). Each community-pair block gets its own Philox
stream keyed by (seed, block id); within a block, slot k consumes the k-th
variate of that stream. Sampling is therefore reproducible regardless of
evaluation order or thread count.

How `sample_pairs` meets it: a slot plan, built once per layout and shared
read-only, lists every block's slots in the canonical `block_slots` order
as flat matrix indices, with each slot's block. Every stream (a block's
variates, `anonymize`'s shuffle, `matcher.select_labeling`'s pick) re-keys
the calling thread's one Philox generator to its key, counter and buffer
reset, which is the state of a fresh Philox(key=...). `sample_pairs` draws
the pairs of many seeds together: each (seed, block) stream fills its row of
one variate array, the CDF inversion of every slot of every seed is one
batched comparison, and each graph is filled by one scatter. `sample_pair`
is its one-seed case.

Generation works directly in label space: the first graph's labeling is the
identity, so label a belongs to community layout.membership[a]. `anonymize`
then hides the second graph behind a seeded uniform relabeling and seals the
truth. Sealing is an API contract (the matcher consumes only the public
fields; scoring goes through `MatchingInstance.score`), not cryptography.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import ParameterError, ValidationError
from .model import (CommunityLayout, PairedEdgeModel, _is_int, model_from_document,
                    parse_json_document, read_file, write_file)
from .permutation import Labeling, from_one_based, to_one_based
from .typicality import block_slots

_SHUFFLE_TAG = 0x5487
_MASK64 = (1 << 64) - 1


_local = threading.local()


def _stream(seed: int, tag: int) -> np.random.Generator:
    """The calling thread's one Philox generator, re-keyed to (seed, tag)
    with counter and buffer reset: the state of a fresh
    Philox(key=(seed, tag)), without the OS entropy its constructor draws
    and discards. The next call on the thread re-keys it again. The state is
    held in Python ints and lists, which the state setter reads faster than
    uint64 arrays."""
    try:
        gen, state, key = _local.stream
    except AttributeError:
        key = [0, 0]
        state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
                 "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        gen = np.random.Generator(np.random.Philox(key=0))
        _local.stream = gen, state, key
    key[0], key[1] = seed & _MASK64, tag & _MASK64
    gen.bit_generator.state = state  # copied in, so state stays as built
    return gen


class _SlotPlan(NamedTuple):
    """Every slot of a layout, block by block (i <= j, row-major) and in
    `block_slots` order within a block."""

    blocks: tuple[tuple[int, int], ...]  # (block id i*c + j, slot count), empty blocks left out
    block_of: np.ndarray  # block id of each slot
    ab: np.ndarray  # flat n x n index a*n + b of each slot (a, b)
    ba: np.ndarray  # flat n x n index b*n + a


@lru_cache(maxsize=64)
def _slot_plan(layout: CommunityLayout) -> _SlotPlan:
    """The layout's slot plan; shared, hence read-only."""
    n, c = layout.n, layout.c
    groups = [layout.vertices_of(i) for i in range(c)]
    blocks, slots = [], []
    for i in range(c):
        for j in range(i, c):
            s = block_slots(groups[i], groups[j] if j != i else None)
            if s:
                blocks.append((i * c + j, len(s)))
                slots += s
    a, b = np.array(slots, dtype=np.intp).reshape(-1, 2).T
    block_of = np.repeat([t for t, _ in blocks], [k for _, k in blocks]).astype(np.intp)
    plan = _SlotPlan(tuple(blocks), block_of, a * n + b, b * n + a)
    for arr in plan[1:]:
        arr.setflags(write=False)
    return plan


@dataclass(frozen=True)
class CorrelatedPair:
    """Both graphs' read-only (n, n) edge-value matrices, indexed by label
    pairs of the layout."""

    g1: np.ndarray
    g2: np.ndarray
    model: PairedEdgeModel
    layout: CommunityLayout
    seed: int


def sample_pairs(model: PairedEdgeModel, layout: CommunityLayout,
                 seeds: Sequence[int]) -> list[CorrelatedPair]:
    """Draw one correlated pair per seed; matched slots follow the model's
    joint law.

    Slot (a, b) with communities (i, j) draws one uniform variate from the
    (seed, block id) stream and inverts the CDF of joint[i, j]. Both graphs'
    values at that slot come from the same draw, which is what makes the two
    graphs correlated under the true (identity) alignment. Pair k is the same,
    bit for bit, whatever seeds come with seeds[k]; its read-only matrices are
    views of one array per call. The model is valid once built; only its
    community count is checked against the layout.
    """
    n, c, l = layout.n, layout.c, model.l
    if model.c != c:
        raise ValidationError([f"community count: tensor has {model.c}, layout has {c}"])
    plan = _slot_plan(layout)
    u = np.empty((len(seeds), len(plan.block_of)))
    for k, seed in enumerate(seeds):
        start = 0
        for tag, count in plan.blocks:
            _stream(seed, tag).random(out=u[k, start:start + count])
            start += count
    # searchsorted(cdf, u, side="right") is the count of cdf entries <= u
    cdf = np.cumsum(model.joint.reshape(c * c, l * l), axis=1)[plan.block_of]
    idx = np.minimum((cdf <= u[..., None]).sum(axis=-1), l * l - 1)
    values = np.zeros((2, len(seeds), n, n), dtype=np.int64)
    flat = values.reshape(2, len(seeds), n * n)
    flat[0][:, plan.ab] = flat[0][:, plan.ba] = idx // l
    flat[1][:, plan.ab] = flat[1][:, plan.ba] = idx % l
    values.setflags(write=False)
    return [CorrelatedPair(g1=values[0, k], g2=values[1, k], model=model, layout=layout, seed=seed)
            for k, seed in enumerate(seeds)]


def sample_pair(model: PairedEdgeModel, layout: CommunityLayout, seed: int) -> CorrelatedPair:
    """Draw one correlated pair: `sample_pairs` for one seed."""
    return sample_pairs(model, layout, [seed])[0]


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
    perm = _stream(shuffle_seed, _SHUFFLE_TAG).permutation(pair.layout.n)
    tau = perm.tolist()  # anon id -> true label
    b = pair.g2[perm[:, None], perm]
    b.setflags(write=False)
    membership = pair.layout.membership
    csi = mode == "csi"
    return MatchingInstance(
        n=pair.layout.n,
        sizes=pair.layout.sizes,
        model=pair.model,
        mode=mode,
        g1_values=pair.g1,
        g2_values=b,
        comm1_of_label=membership if csi else None,
        comm2_of_vertex=tuple([membership[t] for t in tau]) if csi else None,
        seed=pair.seed,
        shuffle_seed=shuffle_seed,
        _truth=Labeling(tuple(tau)),
    )


def vertex_accuracy(truth: Labeling, guess: Labeling) -> float:
    if truth.n != guess.n:
        raise ParameterError("labelings have different sizes")
    agree = sum(1 for a, b in zip(truth.mapping, guess.mapping) if a == b)
    return agree / truth.n


# -- instance files -----------------------------------------------------------

def _ut_list(values: np.ndarray, n: int) -> list[int]:
    """The strict upper triangle, row-major."""
    return values[np.triu_indices(n, 1)].tolist()


def _ut_matrix(flat: Sequence[int], n: int) -> np.ndarray:
    """The symmetric matrix whose strict upper triangle, row-major, is flat."""
    m = np.zeros((n, n), dtype=np.int64)
    iu, ju = np.triu_indices(n, 1)
    m[iu, ju] = m[ju, iu] = flat
    m.setflags(write=False)
    return m


def save_instance(inst: MatchingInstance, path, extra: Optional[dict] = None) -> None:
    """Write an instance as JSON (row-major strict upper triangles, 1-based truth).

    The community maps are the instance's own; a wsi instance, which has none,
    gets those of the contiguous layout.
    """
    comm1, comm2 = inst.comm1_of_label, inst.comm2_of_vertex
    if comm1 is None or comm2 is None:
        comm1 = CommunityLayout.contiguous(inst.sizes).membership
        comm2 = [comm1[t] for t in inst._truth.mapping]
    doc = {
        "l": inst.model.l,
        "communities": list(inst.sizes),
        "joint": inst.model.joint.tolist(),
        "seed": inst.seed,
        "shuffle_seed": inst.shuffle_seed,
        "mode": inst.mode,
        "g1_ut": _ut_list(inst.g1_values, inst.n),
        "g2_ut": _ut_list(inst.g2_values, inst.n),
        "comm1_of_label": list(comm1),
        "comm2_of_vertex": list(comm2),
        "truth": to_one_based(inst._truth),
    }
    if extra:
        doc.update(extra)
    write_file(path, json.dumps(doc, sort_keys=True) + "\n", "instance")


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
    """Read an instance file; mode overrides the recorded one when given."""
    return parse_instance(read_file(path, "instance"), mode)


def parse_instance(data: bytes, mode: Optional[str] = None) -> MatchingInstance:
    """Parse an instance file's bytes; mode overrides the recorded one when given.

    Edge value lists and, under mode csi, both community maps are checked
    against n, the alphabet and the community sizes; every problem found is
    reported in one ValidationError.
    """
    raw = parse_json_document(data, "instance")
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

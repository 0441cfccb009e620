import dataclasses
import json
import sys
import threading

import numpy as np
import pytest

from commatch.errors import CommatchError, ParameterError, ValidationError
from commatch.graphgen import (
    anonymize,
    load_instance,
    sample_pair,
    sample_pairs,
    save_instance,
    vertex_accuracy,
)
from commatch.matcher import ambiguity_set_csi, run_matching
from commatch.model import (
    CommunityLayout,
    PairedEdgeModel,
    copy_joint,
    dsbs_joint,
    homogeneous_model,
    uniform_product_joint,
)
from commatch.permutation import Permutation
from commatch.typicality import block_slots

MODEL, LAYOUT = homogeneous_model(dsbs_joint(0.2), (3, 2))


def test_sampling_is_deterministic():
    a = sample_pair(MODEL, LAYOUT, seed=123)
    b = sample_pair(MODEL, LAYOUT, seed=123)
    assert np.array_equal(a.g1, b.g1)
    assert np.array_equal(a.g2, b.g2)


def test_different_seeds_differ():
    a = sample_pair(MODEL, LAYOUT, seed=1)
    b = sample_pair(MODEL, LAYOUT, seed=2)
    assert not (np.array_equal(a.g1, b.g1)
                and np.array_equal(a.g2, b.g2))


def test_value_matrices_are_well_formed():
    pair = sample_pair(MODEL, LAYOUT, seed=7)
    for g in (pair.g1, pair.g2):
        assert g.shape == (5, 5)
        assert np.array_equal(g, g.T)
        assert np.all(np.diag(g) == 0)
        assert g.min() >= 0 and g.max() < MODEL.l


def test_copy_coupling_produces_equal_graphs():
    model, lay = homogeneous_model(copy_joint(2), (4, 4))
    pair = sample_pair(model, lay, seed=3)
    assert np.array_equal(pair.g1, pair.g2)


def test_sampling_rejects_invalid_model():
    # a model is checked when it is built, so an invalid one never reaches a draw
    with pytest.raises(ValidationError):
        sample_pair(PairedEdgeModel(np.full((1, 1, 2, 2), 0.3)), CommunityLayout.contiguous((4,)),
                    seed=0)


def test_matched_slot_law_monte_carlo():
    # empirical joint over many seeds close to the model cellwise
    model, lay = homogeneous_model(dsbs_joint(0.2), (6,))
    counts = np.zeros((2, 2))
    slots = 0
    for seed in range(400):
        pair = sample_pair(model, lay, seed)
        iu = np.triu_indices(6, k=1)
        xs, ys = pair.g1[iu], pair.g2[iu]
        np.add.at(counts, (xs, ys), 1)
        slots += len(xs)
    emp = counts / slots
    assert np.abs(emp - dsbs_joint(0.2)).max() < 0.02  # 6000 samples, ~4 sigma


def test_independent_slots_are_uncorrelated():
    # product coupling: empirical correlation between the two graphs near zero
    model, lay = homogeneous_model(uniform_product_joint(2), (6,))
    xs, ys = [], []
    for seed in range(400):
        pair = sample_pair(model, lay, seed)
        iu = np.triu_indices(6, k=1)
        xs.append(pair.g1[iu])
        ys.append(pair.g2[iu])
    r = np.corrcoef(np.concatenate(xs), np.concatenate(ys))[0, 1]
    assert abs(r) < 0.03


@pytest.mark.parametrize("mode", ["csi", "wsi"])
def test_anonymize_modes(mode):
    pair = sample_pair(MODEL, LAYOUT, seed=5)
    inst = anonymize(pair, mode, shuffle_seed=9)
    assert inst.mode == mode and inst.n == 5 and inst.sizes == (3, 2)
    if mode == "csi":
        assert inst.comm1_of_label == LAYOUT.membership
        assert inst.comm2_of_vertex is not None
    else:
        assert inst.comm1_of_label is None
        assert inst.comm2_of_vertex is None


def test_anonymize_rejects_unknown_mode():
    pair = sample_pair(MODEL, LAYOUT, seed=5)
    with pytest.raises(ParameterError):
        anonymize(pair, "open", shuffle_seed=0)


def test_shuffle_is_seeded():
    pair = sample_pair(MODEL, LAYOUT, seed=5)
    a = anonymize(pair, "csi", shuffle_seed=9)
    b = anonymize(pair, "csi", shuffle_seed=9)
    c = anonymize(pair, "csi", shuffle_seed=10)
    assert a.sealed_truth() == b.sealed_truth()
    assert np.array_equal(a.g2_values, b.g2_values)
    assert c.sealed_truth() != a.sealed_truth()


def test_truth_relates_instance_to_pair():
    pair = sample_pair(MODEL, LAYOUT, seed=5)
    inst = anonymize(pair, "csi", shuffle_seed=9)
    t = inst.sealed_truth().mapping  # anonymized vertex -> true label
    for v in range(5):
        for w in range(5):
            assert inst.g2_values[v, w] == pair.g2[t[v], t[w]]
        assert inst.comm2_of_vertex[v] == LAYOUT.membership[t[v]]
    assert np.array_equal(inst.g1_values, pair.g1)


def test_score_of_truth_is_one():
    pair = sample_pair(MODEL, LAYOUT, seed=5)
    inst = anonymize(pair, "wsi", shuffle_seed=9)
    assert inst.score(inst.sealed_truth()) == 1.0


def test_vertex_accuracy():
    truth = Permutation((2, 0, 1, 3))
    assert vertex_accuracy(truth, truth) == 1.0
    assert vertex_accuracy(truth, Permutation((2, 0, 3, 1))) == 0.5
    assert vertex_accuracy(truth, Permutation((0, 1, 2, 3))) == 0.25
    with pytest.raises(ParameterError):
        vertex_accuracy(truth, Permutation((0, 1)))


@pytest.mark.parametrize("mode", ["csi", "wsi"])
def test_instance_roundtrip(tmp_path, mode):
    pair = sample_pair(MODEL, LAYOUT, seed=21)
    inst = anonymize(pair, mode, shuffle_seed=4)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    back = load_instance(path)
    assert back.mode == mode
    assert back.n == inst.n and back.sizes == inst.sizes
    assert np.array_equal(back.g1_values, inst.g1_values)
    assert np.array_equal(back.g2_values, inst.g2_values)
    assert back.comm1_of_label == inst.comm1_of_label
    assert back.comm2_of_vertex == inst.comm2_of_vertex
    assert back.sealed_truth() == inst.sealed_truth()
    assert np.array_equal(back.model.joint, inst.model.joint)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_instance_file_lists_upper_triangles_row_major(tmp_path, n):
    # g1_ut and g2_ut against a loop over the strict upper triangle, row by row
    model, lay = homogeneous_model(uniform_product_joint(3), (n,))
    inst = anonymize(sample_pair(model, lay, seed=n), "csi", shuffle_seed=n)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    doc = json.loads(path.read_text())
    for key, values in (("g1_ut", inst.g1_values), ("g2_ut", inst.g2_values)):
        want = [int(values[a, b]) for a in range(n) for b in range(a + 1, n)]
        assert doc[key] == want and all(type(v) is int for v in doc[key])
    back = load_instance(path)
    for got, want in ((back.g1_values, inst.g1_values), (back.g2_values, inst.g2_values)):
        assert got.dtype == np.int64 and np.array_equal(got, want) and not got.flags.writeable


def test_interleaved_instance_roundtrip_keeps_its_maps(tmp_path):
    # the file holds the instance's own community maps, not the contiguous
    # layout's, so the reloaded instance has the same ambiguity set
    model, _ = homogeneous_model(dsbs_joint(0.2), (3, 3))
    layout = CommunityLayout((3, 3), (0, 1, 0, 1, 0, 1))
    inst = anonymize(sample_pair(model, layout, seed=4), "csi", shuffle_seed=4)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    back = load_instance(path)
    assert back.comm1_of_label == inst.comm1_of_label == layout.membership
    assert back.comm2_of_vertex == inst.comm2_of_vertex
    got = [p.mapping for p in ambiguity_set_csi(back, eps=0.3)]
    assert got == [p.mapping for p in ambiguity_set_csi(inst, eps=0.3)] and got


def test_load_mode_override_drops_side_information(tmp_path):
    pair = sample_pair(MODEL, LAYOUT, seed=21)
    inst = anonymize(pair, "csi", shuffle_seed=4)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    back = load_instance(path, mode="wsi")
    assert back.mode == "wsi"
    assert back.comm1_of_label is None and back.comm2_of_vertex is None


def test_load_rejects_missing_keys(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"l": 2}\n')
    with pytest.raises(ValidationError):
        load_instance(path)


# -- sample_pair against a per-slot reference ---------------------------------

_MASK64 = (1 << 64) - 1


def _reference_values(model, layout, seed):
    """The randomness contract written out slot by slot: a fresh
    Philox(key=(seed, i*c + j)) per block, slots in block_slots order, each
    inverted by searchsorted(side="right") on the block's CDF."""
    n, c, l = layout.n, layout.c, model.l
    v1 = np.zeros((n, n), dtype=np.int64)
    v2 = np.zeros((n, n), dtype=np.int64)
    groups = [layout.vertices_of(i) for i in range(c)]
    for i in range(c):
        for j in range(i, c):
            slots = block_slots(groups[i], groups[j] if j != i else None)
            if not slots:
                continue
            key = np.array([seed & _MASK64, i * c + j], dtype=np.uint64)
            u = np.random.Generator(np.random.Philox(key=key)).random(len(slots))
            cdf = np.cumsum(model.joint[i, j].reshape(-1))
            idx = np.minimum(np.searchsorted(cdf, u, side="right"), l * l - 1)
            for k, (a, b) in enumerate(slots):
                v1[a, b] = v1[b, a] = idx[k] // l
                v2[a, b] = v2[b, a] = idx[k] % l
    return v1, v2


def _blockwise_model(c, l, rng):
    """A symmetric model with its own joint per block, zero cells included."""
    joint = rng.random((c, c, l, l)) * (rng.random((c, c, l, l)) > 0.25)
    joint[..., 0, 0] += 0.01
    joint /= joint.sum(axis=(2, 3), keepdims=True)
    iu, ju = np.triu_indices(c, 1)
    joint[ju, iu] = joint[iu, ju]
    return PairedEdgeModel(joint)


REFERENCE_LAYOUTS = {
    "contiguous": CommunityLayout.contiguous((3, 3, 3, 3)),
    "interleaved": CommunityLayout((3, 3, 3, 3), tuple(v % 4 for v in range(12))),
    "reversed": CommunityLayout((2, 4, 3), (2, 1, 0, 2, 1, 1, 0, 2, 1)),
    "size-1": CommunityLayout((1, 3, 1, 2), (3, 1, 0, 1, 2, 3, 1)),
    "all size-1": CommunityLayout.contiguous((1, 1, 1)),
    "one community": CommunityLayout.contiguous((7,)),
}


@pytest.mark.parametrize("seed", [0, 2 ** 63 + 5, -1])
@pytest.mark.parametrize("l", [2, 3])
@pytest.mark.parametrize("name", list(REFERENCE_LAYOUTS))
def test_sample_pair_equals_per_slot_reference(name, l, seed):
    layout = REFERENCE_LAYOUTS[name]
    rng = np.random.default_rng([l, layout.n, layout.c])
    models = [homogeneous_model(dsbs_joint(0.1) if l == 2 else copy_joint(3), layout.sizes)[0],
              _blockwise_model(layout.c, l, rng), _blockwise_model(layout.c, l, rng)]
    for model in models:
        pair = sample_pair(model, layout, seed)
        want1, want2 = _reference_values(model, layout, seed)
        for got, want in ((pair.g1, want1), (pair.g2, want2)):
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)
            assert not got.flags.writeable



@pytest.mark.parametrize("l", [2, 3])
@pytest.mark.parametrize("name", list(REFERENCE_LAYOUTS))
def test_sample_pairs_equal_one_seed_draws(name, l):
    layout = REFERENCE_LAYOUTS[name]
    model = _blockwise_model(layout.c, l, np.random.default_rng([l, layout.n, layout.c, 1]))
    seeds = [0, 2 ** 63 + 5, -1, 0, 17]
    pairs = sample_pairs(model, layout, seeds)
    assert [p.seed for p in pairs] == seeds
    for pair, seed in zip(pairs, seeds):
        alone = sample_pair(model, layout, seed)
        want = _reference_values(model, layout, seed)
        for got, one, ref in zip((pair.g1, pair.g2), (alone.g1, alone.g2), want):
            assert got.dtype == np.int64 and not got.flags.writeable
            assert np.array_equal(got, one) and np.array_equal(got, ref)
    assert sample_pairs(model, layout, []) == []


# -- one generator per thread -------------------------------------------------

def _draws(model, layout, seeds):
    """Everything a trial draws, for each seed: the pair, the anonymized
    instance and the matcher's pick (or the error it met)."""
    out = []
    for seed in seeds:
        pair = sample_pair(model, layout, seed)
        inst = anonymize(pair, ("csi", "wsi")[seed % 2], shuffle_seed=seed)
        try:
            res = run_matching(inst, eps=0.45, seed=seed)
            picked = (res.labeling, res.accuracy,
                      dataclasses.replace(res.diagnostics, wall_time_ms=0.0))
        except CommatchError as e:
            picked = repr(e)
        out.append((pair.g1.tobytes(), pair.g2.tobytes(), inst.g2_values.tobytes(),
                    inst.comm2_of_vertex, inst.sealed_truth(), picked))
    return out


def test_threads_draw_what_a_sequential_loop_draws():
    # every stream re-keys its thread's one generator, so two threads drawing
    # at once get what one thread drawing in turn gets
    model, layout = homogeneous_model(dsbs_joint(0.2), (3, 3))
    seeds = [list(range(100)), list(range(2 ** 40, 2 ** 40 + 100))]
    want = [_draws(model, layout, s) for s in seeds]
    got = [None, None]
    start = threading.Barrier(2)

    def work(k):
        start.wait()
        got[k] = _draws(model, layout, seeds[k])

    threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-trial included
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want
    # some trials pick from a set and some meet an empty one
    assert {isinstance(w[-1], str) for w in want[0] + want[1]} == {True, False}

import errno
import os
from fractions import Fraction

import numpy as np
import pytest

from commatch.errors import ParameterError, ValidationError
from commatch.graphgen import sample_pair
from commatch.model import (
    CommunityLayout,
    PairedEdgeModel,
    copy_joint,
    dsbs_joint,
    homogeneous_model,
    load_model,
    marginal,
    parse_model,
    product_coupling,
    save_model,
    single_community,
    uniform_product_joint,
    write_file,
)


def test_layout_contiguous():
    lay = CommunityLayout.contiguous((2, 3))
    assert lay.n == 5 and lay.c == 2
    assert lay.membership == (0, 0, 1, 1, 1)
    assert lay.vertices_of(0) == (0, 1)
    assert lay.vertices_of(1) == (2, 3, 4)


def test_layout_rejects_bad_membership():
    with pytest.raises(ParameterError):
        CommunityLayout(sizes=(2, 2), membership=(0, 0, 0, 1))
    with pytest.raises(ParameterError):
        CommunityLayout(sizes=(2,), membership=(0, 5))
    with pytest.raises(ParameterError):
        CommunityLayout(sizes=(0, 2), membership=(1, 1))


@pytest.mark.parametrize("sizes,n,expected", [
    ((5, 5), 7, (4, 3)),
    ((2, 3), 10, (4, 6)),
    ((3,), 3, (3,)),
    ((1, 1), 6, (3, 3)),
    ((4, 1), 3, (2, 1)),
])
def test_scaled_sizes(sizes, n, expected):
    lay = CommunityLayout.contiguous(sizes)
    out = lay.scaled_sizes(n)
    assert out == expected
    assert sum(out) == n
    assert all(s >= 1 for s in out)


def test_scaled_sizes_rejects_too_small():
    with pytest.raises(ParameterError):
        CommunityLayout.contiguous((2, 2)).scaled_sizes(1)


def _violations(joint):
    """The violations a model built from joint raises."""
    with pytest.raises(ValidationError) as e:
        PairedEdgeModel(joint)
    return e.value.violations


def test_validate_ok():
    model, lay = homogeneous_model(dsbs_joint(0.1), (3, 2))
    assert PairedEdgeModel(model.joint).c == lay.c


def test_validate_catches_normalization():
    bad = np.full((1, 1, 2, 2), 0.3)
    assert any("normalization" in v for v in _violations(bad))


def test_validate_catches_negative():
    blk = np.array([[1.5, -0.5], [0.0, 0.0]])
    bad = blk[None, None]
    assert any("negative" in v for v in _violations(bad))


def test_validate_catches_asymmetry():
    t = np.zeros((2, 2, 2, 2))
    t[:] = uniform_product_joint(2)
    t[0, 1] = np.array([[0.5, 0.0], [0.0, 0.5]])  # differs from t[1, 0]
    assert any("asymmetry" in v for v in _violations(t))


def test_validate_reports_every_violation_in_block_order():
    # negative entries, bad sums and asymmetry in several blocks at once: the
    # report lists them block by block, row-major, with the same texts as the
    # per-block loop that preceded the whole-tensor checks
    j = np.broadcast_to(dsbs_joint(0.2), (3, 3, 2, 2)).copy()
    j[0, 0, 0, 0] = -0.1                       # (1,1): negative, sums below 1
    j[0, 2] = [[0.5, 0.25], [0.25, 0.5]]       # (1,3): sums to 1.5, differs from (3,1)
    j[2, 1] = [[0.6, 0.1], [0.5, -0.2]]        # (3,2): negative, normalized, differs from (2,3)
    j[1, 1] *= 1 + 1e-9                        # (2,2): just outside the tolerance
    assert _violations(j) == (
        "negative entries in block for communities (1,1)",
        "normalization: block (1,1) sums to 0.5",
        "normalization: block (1,3) sums to 1.5",
        "asymmetry between blocks (1,3) and (3,1)",
        "normalization: block (2,2) sums to 1.000000001",
        "asymmetry between blocks (2,3) and (3,2)",
        "negative entries in block for communities (3,2)",
    )


@pytest.mark.parametrize("joint, violation", [
    (np.full((1, 1, 1, 1), 1.0), "edge alphabet needs size >= 2, got 1"),
    (np.full((2, 2, 2), 0.25), "joint tensor must be 4-d, got 3-d"),
    (np.full((1, 2, 2, 2), 0.25), "joint tensor shape (1, 2, 2, 2) inconsistent"),
    (np.full((1, 1, 2, 3), 1 / 6), "joint tensor shape (1, 1, 2, 3) inconsistent"),
], ids=["alphabet", "ndim", "communities", "alphabets"])
def test_validate_catches_bad_shape(joint, violation):
    assert _violations(joint) == (violation,)


def test_valid_models_build_without_violations():
    for joint, sizes in ((dsbs_joint(0.1), (3, 2)), (copy_joint(3), (1, 1, 4)), (copy_joint(2), (5,))):
        model, lay = homogeneous_model(joint, sizes)
        assert (model.c, model.l) == (lay.c, joint.shape[0])
        assert np.array_equal(PairedEdgeModel(model.joint).joint, model.joint)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=str)
def test_validate_catches_non_finite_entries(value):
    # nan passes both the sign and the sum test, so it needs its own check
    j = np.broadcast_to(dsbs_joint(0.2), (2, 2, 2, 2)).copy()
    j[1, 1, 0, 1] = value
    violations = _violations(j)
    assert "non-finite entries in block for communities (2,2)" in violations
    assert all("(1," not in v for v in violations)


def test_validate_catches_community_count_mismatch():
    # a model is checked against a layout only where both meet: sample_pair
    model = single_community(copy_joint(2))
    with pytest.raises(ValidationError) as e:
        sample_pair(model, CommunityLayout.contiguous((2, 2)), seed=0)
    assert e.value.violations == ("community count: tensor has 1, layout has 2",)


def test_dsbs_float():
    j = dsbs_joint(0.2)
    assert j.shape == (2, 2)
    assert j[0, 0] == j[1, 1] == 0.4
    assert j[0, 1] == j[1, 0] == 0.1
    assert j.sum() == pytest.approx(1.0, abs=1e-15)


def test_dsbs_exact():
    j = dsbs_joint(Fraction(1, 10), exact=True)
    assert j[0][0] == Fraction(9, 20)
    assert j[0][1] == Fraction(1, 20)
    assert sum(sum(row) for row in j) == 1


def test_dsbs_rejects_bad_crossover():
    with pytest.raises(ParameterError):
        dsbs_joint(1.2)
    with pytest.raises(ParameterError):
        dsbs_joint(-0.1)


def test_copy_and_uniform_joints():
    assert np.array_equal(copy_joint(3), np.eye(3) / 3)
    assert np.array_equal(uniform_product_joint(2), np.full((2, 2), 0.25))


def test_marginals_of_dsbs_are_uniform():
    model = single_community(dsbs_joint(0.2))
    for side in ("first", "second"):
        t = marginal(model, side)
        assert t.shape == (1, 1, 2) and not t.flags.writeable
        assert np.allclose(t[0, 0], [0.5, 0.5])
    with pytest.raises(ParameterError):
        marginal(model, "third")


def test_product_coupling_of_copy_is_uniform():
    pc = product_coupling(single_community(copy_joint(2)))
    assert np.array_equal(pc.joint[0, 0], uniform_product_joint(2))


def test_product_coupling_keeps_marginals():
    model, _ = homogeneous_model(dsbs_joint(0.3), (2, 2))
    pc = product_coupling(model)
    for side in ("first", "second"):
        assert np.allclose(marginal(pc, side), marginal(model, side))


def test_homogeneous_model_tiles_blocks():
    model, lay = homogeneous_model(dsbs_joint(0.1), (2, 3))
    assert model.c == 2 and model.l == 2
    assert lay.sizes == (2, 3)
    for i in range(2):
        for j in range(2):
            assert np.array_equal(model.joint[i, j], dsbs_joint(0.1))


def test_model_roundtrip(tmp_path):
    model, lay = homogeneous_model(dsbs_joint(0.17), (3, 2))
    path = tmp_path / "model.json"
    save_model(model, lay, path)
    m2, lay2 = load_model(path)
    assert lay2.sizes == lay.sizes
    assert lay2.membership == lay.membership
    assert np.array_equal(m2.joint, model.joint)


def test_load_rejects_invalid(tmp_path):
    path = tmp_path / "bad.json"
    model, lay = homogeneous_model(dsbs_joint(0.1), (2, 2))
    save_model(model, lay, path)
    text = path.read_text().replace("0.45", "0.40", 1)
    path.write_text(text)
    with pytest.raises(ValidationError):
        load_model(path)


def test_load_wraps_file_errors(tmp_path):
    with pytest.raises(ValidationError, match="cannot read"):
        load_model(tmp_path / "missing.json")
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{truncated")
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_model(corrupt)
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"l": 2, "name": "\u00e9"}'.encode("latin-1"))
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_model(latin1)
    arr = tmp_path / "arr.json"
    arr.write_text("[]")
    with pytest.raises(ValidationError, match="JSON object"):
        load_model(arr)


def test_joint_tensor_is_readonly():
    model = single_community(copy_joint(2))
    with pytest.raises(ValueError):
        model.joint[0, 0, 0, 0] = 0.5


def test_model_owns_its_tensor():
    # the caller's array stays writable, and writing to it cannot make the
    # validated model invalid
    j = np.broadcast_to(dsbs_joint(0.1), (2, 2, 2, 2)).copy()
    model = PairedEdgeModel(j)
    j[0, 0, 0, 0] = 0.5
    assert model.joint[0, 0, 0, 0] == 0.45 and j.flags.writeable


def _open_descriptors() -> list[str]:
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
@pytest.mark.parametrize("call", ["write", "fstat", "ftruncate"])
def test_failed_write_closes_its_descriptor(tmp_path, monkeypatch, call):
    # a write that fails after the open raises ValidationError and leaves no
    # descriptor open
    def fail(*args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    path = tmp_path / "out.json"
    before = _open_descriptors()
    monkeypatch.setattr(os, call, fail)
    with pytest.raises(ValidationError, match="cannot write output file: .*No space left"):
        write_file(path, "{}\n", "output")
    monkeypatch.undo()
    assert _open_descriptors() == before
    assert path.exists()


# a valid single-community model file (the broken case below sums to 0.95)
MODEL_BYTES = b'{"communities": [3], "joint": [[[[0.45, 0.05], [0.05, 0.45]]]], "l": 2}'


@pytest.mark.parametrize("data", [
    b"{truncated",
    b'{"l": 2, "communities": [2]}',
    MODEL_BYTES.replace(b"0.45", b"0.40", 1),
], ids=["json", "missing-key", "unnormalized"])
def test_broken_model_bytes_raise_on_every_call(data):
    for _ in range(3):
        with pytest.raises(ValidationError):
            parse_model(data)


def test_memoized_model_is_shared_and_read_only():
    model, lay = parse_model(MODEL_BYTES)
    again = parse_model(bytes(bytearray(MODEL_BYTES)))  # equal bytes, another object
    assert again[0] is model and again[1] is lay
    with pytest.raises(ValueError):
        model.joint[0, 0, 0, 0] = 0.5
    assert parse_model(MODEL_BYTES)[0].joint[0, 0, 0, 0] == 0.45

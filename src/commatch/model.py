"""Edge-distribution models for correlated graph pairs with communities.

A paired edge model assigns, to every ordered community pair (i, j), a joint
distribution over the two graphs' edge values at a vertex pair straddling
those communities. The tensor is stored with explicit (i, j) indices and a
symmetry requirement joint[i, j] == joint[j, i], so undirected slots can be
read through either index order.

Model files are JSON: {"l": int, "communities": [sizes], "joint": [c][c][l][l]}.

All public types are immutable; arrays are marked read-only.
"""

from __future__ import annotations

import json
import os
import stat
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ParameterError, ValidationError

NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class CommunityLayout:
    """Community sizes plus a vertex -> community map."""

    sizes: tuple[int, ...]
    membership: tuple[int, ...]

    def __post_init__(self):
        if not self.sizes or any(s < 1 for s in self.sizes):
            raise ParameterError(f"community sizes must be positive: {self.sizes}")
        counts = [0] * len(self.sizes)
        for m in self.membership:
            if not 0 <= m < len(self.sizes):
                raise ParameterError(f"membership value {m} out of range")
            counts[m] += 1
        if tuple(counts) != self.sizes:
            raise ParameterError(
                f"membership counts {counts} disagree with sizes {self.sizes}")

    @classmethod
    def contiguous(cls, sizes: Sequence[int]) -> "CommunityLayout":
        """Layout assigning the first sizes[0] vertices to community 0, etc."""
        sizes = tuple(int(s) for s in sizes)
        membership = tuple(i for i, s in enumerate(sizes) for _ in range(s))
        return cls(sizes=sizes, membership=membership)

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def c(self) -> int:
        return len(self.sizes)

    def vertices_of(self, community: int) -> tuple[int, ...]:
        return tuple(v for v, m in enumerate(self.membership) if m == community)

    def scaled_sizes(self, n: int) -> tuple[int, ...]:
        """Community sizes rescaled proportionally to a total of n.

        Uses largest-remainder rounding so the result always sums to n.
        Community size fractions are treated as fixed while n grows.
        """
        if n < self.c:
            raise ParameterError(f"cannot scale {self.c} communities to n={n}")
        if n == self.n:
            return self.sizes
        quotas = [n * s / self.n for s in self.sizes]
        floored = [max(1, int(q)) for q in quotas]
        rem = n - sum(floored)
        if rem < 0:
            # Over-allocated by the size-1 floors; shrink the largest.
            order = sorted(range(self.c), key=lambda i: -floored[i])
            for i in order:
                while rem < 0 and floored[i] > 1:
                    floored[i] -= 1
                    rem += 1
        else:
            order = sorted(range(self.c), key=lambda i: -(quotas[i] - int(quotas[i])))
            for k in range(rem):
                floored[order[k % self.c]] += 1
        return tuple(floored)


def _readonly(a: np.ndarray) -> np.ndarray:
    """A read-only float copy: a model checked once when built stays valid,
    whatever the caller later does with the array it passed."""
    a = np.array(a, dtype=float, order="C")
    a.setflags(write=False)
    return a


def _check_alphabet(l: int) -> None:
    if l < 2:
        raise ValidationError([f"edge alphabet needs size >= 2, got {l}"])


@dataclass(frozen=True)
class PairedEdgeModel:
    """Joint edge-value law per ordered community pair.

    joint has shape (c, c, l, l); joint[i, j, x, y] is the probability that a
    matched vertex pair with communities (i, j) carries value x in the first
    graph and y in the second, over the shared edge-value alphabet
    {0, ..., l-1}. Unmatched pairs follow product_coupling(model).

    A model is valid once built: the constructor raises ValidationError when
    the alphabet has fewer than 2 values or the tensor is not (c, c, l, l),
    and otherwise lists every block with negative or non-finite entries, a
    sum off 1 by more than NORMALIZATION_TOL, or (for i < j) a block unequal
    to its mirror, row-major (i, j). Each check runs over the whole tensor at
    once; only a failing model is walked block by block to word them.
    """

    joint: np.ndarray

    def __post_init__(self):
        joint = _readonly(self.joint)
        object.__setattr__(self, "joint", joint)
        if joint.ndim:
            _check_alphabet(joint.shape[-1])
        if joint.ndim != 4:
            raise ValidationError([f"joint tensor must be 4-d, got {joint.ndim}-d"])
        c, c2, l, l2 = joint.shape
        if c != c2 or l != l2:
            raise ValidationError([f"joint tensor shape {joint.shape} inconsistent"])
        flat = joint.reshape(c, c, -1)
        negative = (flat < 0).any(axis=2)
        nonfinite = ~np.isfinite(flat).all(axis=2)
        sums = flat.sum(axis=2)
        unnormalized = np.abs(sums - 1.0) > NORMALIZATION_TOL
        asymmetric = (flat != flat.transpose(1, 0, 2)).any(axis=2)  # NaN != NaN
        if not (negative | nonfinite | unnormalized | asymmetric).any():
            return
        v: list[str] = []
        for i in range(c):
            for j in range(c):
                if negative[i, j]:
                    v.append(f"negative entries in block for communities ({i + 1},{j + 1})")
                if nonfinite[i, j]:
                    v.append(f"non-finite entries in block for communities ({i + 1},{j + 1})")
                if unnormalized[i, j]:
                    v.append(
                        f"normalization: block ({i + 1},{j + 1}) sums to {float(sums[i, j])!r}")
                if j > i and asymmetric[i, j]:
                    v.append(f"asymmetry between blocks ({i + 1},{j + 1}) and ({j + 1},{i + 1})")
        raise ValidationError(v)

    @property
    def c(self) -> int:
        return self.joint.shape[0]

    @property
    def l(self) -> int:
        return self.joint.shape[-1]


def marginal(model: PairedEdgeModel, side: str) -> np.ndarray:
    """Per community pair, the edge law of one graph: a read-only (c, c, l)
    array.

    side is "first" (sum out the second coordinate) or "second".
    """
    if side == "first":
        t = model.joint.sum(axis=3)
    elif side == "second":
        t = model.joint.sum(axis=2)
    else:
        raise ParameterError(f"side must be 'first' or 'second', got {side!r}")
    return _readonly(t)


def product_coupling(model: PairedEdgeModel) -> PairedEdgeModel:
    """Same marginals, independent coupling: joint = marg1 (x) marg2 blockwise."""
    prod = np.einsum("ijx,ijy->ijxy", marginal(model, "first"), marginal(model, "second"))
    return PairedEdgeModel(prod)


# -- convenience constructors used by tests and the CLI ----------------------

def single_community(joint: np.ndarray | Sequence) -> PairedEdgeModel:
    """Wrap a bare l x l joint distribution as a c=1 model."""
    return PairedEdgeModel(np.asarray(joint, dtype=float)[None, None])


def dsbs_joint(crossover: float, exact: bool = False):
    """Doubly symmetric binary source: uniform marginals, given flip rate.

    With exact=True returns a nested list of Fractions (the float crossover is
    converted through Fraction(str(...)) so 0.1 means exactly 1/10); otherwise
    a float ndarray.
    """
    if not 0 <= crossover <= 1:
        raise ParameterError(f"crossover must lie in [0, 1], got {crossover}")
    if exact:
        from fractions import Fraction
        p = Fraction(str(crossover))
        half = Fraction(1, 2)
        same = (1 - p) * half
        diff = p * half
        return [[same, diff], [diff, same]]
    p = float(crossover)
    return np.array([[(1 - p) / 2, p / 2], [p / 2, (1 - p) / 2]])


def copy_joint(l: int = 2) -> np.ndarray:
    """Deterministic coupling: both graphs carry identical values."""
    return np.eye(l) / l


def uniform_product_joint(l: int = 2) -> np.ndarray:
    """Independent uniform values on both sides."""
    return np.full((l, l), 1.0 / (l * l))


def homogeneous_model(joint: np.ndarray | Sequence, sizes: Sequence[int]) -> tuple[PairedEdgeModel, CommunityLayout]:
    """Model using the same l x l joint for every community pair."""
    j = np.asarray(joint, dtype=float)
    c = len(sizes)
    return PairedEdgeModel(np.broadcast_to(j, (c, c) + j.shape)), CommunityLayout.contiguous(sizes)


# -- JSON model files ---------------------------------------------------------

def read_file(path, kind: str) -> bytes:
    """The bytes of a model or instance file; an unreadable file raises
    ValidationError instead of leaking OSError to callers."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise ValidationError([f"cannot read {kind} file: {e}"]) from None


def write_file(path, text: str, kind: str) -> None:
    """Write text, UTF-8 encoded, to a file; an unwritable path raises
    ValidationError instead of leaking OSError to callers, as `read_file`
    does.

    An existing file is overwritten in place and, if it is a regular file,
    then truncated to the text's length, so a shorter text leaves no tail
    behind; devices and pipes are written to and never truncated. Opening
    without O_TRUNC spares the flush that ext4 runs when a file truncated to
    zero is closed (about 90 µs against 10 µs for a 2 kB file). As before,
    there is no fsync and no atomic replace.
    """
    data = text.encode()
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except OSError as e:
        raise ValidationError([f"cannot write {kind} file: {e}"]) from None


def parse_json_document(data: bytes, kind: str) -> dict:
    """The JSON object in a file's UTF-8 bytes; malformed bytes raise
    ValidationError instead of leaking a decode error to callers."""
    try:
        raw = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ValidationError([f"{kind} file is not valid JSON: {e}"]) from None
    if not isinstance(raw, dict):
        raise ValidationError([f"{kind} file must hold a JSON object"])
    return raw


def _is_int(v) -> bool:
    """A JSON integer: int, but not bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def model_from_document(raw: dict) -> tuple[PairedEdgeModel, CommunityLayout]:
    """Model and layout from the "l", "communities" and "joint" entries of a
    model or instance document, validated; every problem, including an l or
    community size that is not a JSON integer and joint entries that are not
    numbers, raises ValidationError."""
    l, sizes = raw["l"], raw["communities"]
    if not _is_int(l) or not isinstance(sizes, list) or not all(_is_int(s) for s in sizes):
        raise ValidationError(
            [f"l and communities must hold integers, got l={l!r}, communities={sizes!r}"])
    try:
        _check_alphabet(l)
        layout = CommunityLayout.contiguous(sizes)
        joint = np.asarray(raw["joint"], dtype=float)
        if joint.shape != (layout.c, layout.c, l, l):
            raise ValidationError(
                [f"joint shape {joint.shape} != expected ({layout.c},{layout.c},{l},{l})"])
        model = PairedEdgeModel(joint)
    except ParameterError as e:
        raise ValidationError([str(e)]) from e
    except (TypeError, ValueError, OverflowError) as e:
        raise ValidationError([f"l, communities and joint must hold numbers: {e}"]) from None
    return model, layout


def load_model(path) -> tuple[PairedEdgeModel, CommunityLayout]:
    """Load and validate a model file; raises ValidationError when broken."""
    return parse_model(read_file(path, "model"))


@lru_cache(maxsize=8)
def parse_model(data: bytes) -> tuple[PairedEdgeModel, CommunityLayout]:
    """Parse and validate a model file's bytes; raises ValidationError when broken.

    Results are memoized on the bytes themselves, so a process parses each
    distinct model file's contents once and a file rewritten with new bytes
    is parsed afresh. Sharing a result is safe: both types are frozen and
    the joint tensor is read-only. A broken file raises on every call, since
    no exception is memoized.
    """
    raw = parse_json_document(data, "model")
    problems = [k for k in ("l", "communities", "joint") if k not in raw]
    if problems:
        raise ValidationError([f"missing model file key: {k}" for k in problems])
    return model_from_document(raw)


def save_model(model: PairedEdgeModel, layout: CommunityLayout, path) -> None:
    doc = {
        "l": model.l,
        "communities": list(layout.sizes),
        "joint": model.joint.tolist(),
    }
    write_file(path, json.dumps(doc, sort_keys=True) + "\n", "model")

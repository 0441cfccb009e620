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
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ParameterError, ValidationError

NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class EdgeAlphabet:
    """Shared edge-value alphabet {0, ..., size-1} for both graphs."""

    size: int

    def __post_init__(self):
        if self.size < 2:
            raise ParameterError(f"edge alphabet needs size >= 2, got {self.size}")


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
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PairedEdgeModel:
    """Joint edge-value law per ordered community pair.

    joint has shape (c, c, l, l); joint[i, j, x, y] is the probability that a
    matched vertex pair with communities (i, j) carries value x in the first
    graph and y in the second. Unmatched pairs follow product_coupling(model).
    """

    alphabet: EdgeAlphabet
    joint: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "joint", _readonly(self.joint))
        if self.joint.ndim != 4:
            raise ParameterError(f"joint tensor must be 4-d, got {self.joint.ndim}-d")
        c1, c2, l1, l2 = self.joint.shape
        if c1 != c2 or l1 != l2 or l1 != self.alphabet.size:
            raise ParameterError(f"joint tensor shape {self.joint.shape} inconsistent")

    @property
    def c(self) -> int:
        return self.joint.shape[0]

    @property
    def l(self) -> int:
        return self.alphabet.size

    def block(self, i: int, j: int) -> np.ndarray:
        return self.joint[i, j]


@dataclass(frozen=True)
class EdgeMarginal:
    """Per community pair, the edge-value law of one side: shape (c, c, l)."""

    tensor: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tensor", _readonly(self.tensor))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def validate_model(model: PairedEdgeModel, layout: CommunityLayout) -> ValidationReport:
    """Check structural invariants; reports every violation found.

    Checked: tensor shape vs layout, entries >= 0, per-(i,j) normalization
    within NORMALIZATION_TOL, and (i,j)-symmetry of the blocks.
    """
    v: list[str] = []
    c = layout.c
    if model.c != c:
        v.append(f"community count: tensor has {model.c}, layout has {c}")
        return ValidationReport(False, tuple(v))
    for i in range(c):
        for j in range(c):
            blk = model.joint[i, j]
            if (blk < 0).any():
                v.append(f"negative entries in block for communities ({i + 1},{j + 1})")
            s = float(blk.sum())
            if abs(s - 1.0) > NORMALIZATION_TOL:
                v.append(
                    f"normalization: block ({i + 1},{j + 1}) sums to {s!r}")
            if j > i and not np.array_equal(model.joint[i, j], model.joint[j, i]):
                v.append(f"asymmetry between blocks ({i + 1},{j + 1}) and ({j + 1},{i + 1})")
    return ValidationReport(not v, tuple(v))


def marginal(model: PairedEdgeModel, side: str) -> EdgeMarginal:
    """Per-community-pair edge law of one graph.

    side is "first" (sum out the second coordinate) or "second".
    """
    if side == "first":
        t = model.joint.sum(axis=3)
    elif side == "second":
        t = model.joint.sum(axis=2)
    else:
        raise ParameterError(f"side must be 'first' or 'second', got {side!r}")
    return EdgeMarginal(t)


def product_coupling(model: PairedEdgeModel) -> PairedEdgeModel:
    """Same marginals, independent coupling: joint = marg1 (x) marg2 blockwise."""
    m1 = marginal(model, "first").tensor
    m2 = marginal(model, "second").tensor
    prod = np.einsum("ijx,ijy->ijxy", m1, m2)
    return PairedEdgeModel(alphabet=model.alphabet, joint=prod)


# -- convenience constructors used by tests and the CLI ----------------------

def single_community(joint: np.ndarray | Sequence) -> PairedEdgeModel:
    """Wrap a bare l x l joint distribution as a c=1 model."""
    j = np.asarray(joint, dtype=float)
    return PairedEdgeModel(alphabet=EdgeAlphabet(j.shape[0]), joint=j[None, None])


def dsbs_joint(crossover: float, exact: bool = False):
    """Doubly symmetric binary source: uniform marginals, given flip rate.

    With exact=True returns a nested list of Fractions (the float crossover is
    converted through Fraction(str(...)) so 0.1 means exactly 1/10); otherwise
    a float ndarray.
    """
    if not 0 <= crossover <= 1:
        raise ParameterError(f"crossover must lie in [0, 1], got {crossover}")
    if exact:
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
    tensor = np.broadcast_to(j, (c, c) + j.shape).copy()
    model = PairedEdgeModel(alphabet=EdgeAlphabet(j.shape[0]), joint=tensor)
    return model, CommunityLayout.contiguous(sizes)


# -- JSON model files ---------------------------------------------------------

def read_json_document(path, kind: str) -> dict:
    """Read a JSON object from path; unreadable or malformed files raise
    ValidationError instead of leaking OSError/JSONDecodeError to callers."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ValidationError([f"cannot read {kind} file: {e}"]) from None
    except json.JSONDecodeError as e:
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
        alphabet = EdgeAlphabet(l)
        layout = CommunityLayout.contiguous(sizes)
        joint = np.asarray(raw["joint"], dtype=float)
        if joint.shape != (layout.c, layout.c, alphabet.size, alphabet.size):
            raise ValidationError(
                [f"joint shape {joint.shape} != expected "
                 f"({layout.c},{layout.c},{alphabet.size},{alphabet.size})"])
        model = PairedEdgeModel(alphabet=alphabet, joint=joint)
    except ParameterError as e:
        raise ValidationError([str(e)]) from e
    except (TypeError, ValueError, OverflowError) as e:
        raise ValidationError([f"l, communities and joint must hold numbers: {e}"]) from None
    report = validate_model(model, layout)
    if not report.ok:
        raise ValidationError(report.violations)
    return model, layout


def load_model(path) -> tuple[PairedEdgeModel, CommunityLayout]:
    """Load and validate a model file; raises ValidationError when broken."""
    raw = read_json_document(path, "model")
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
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")

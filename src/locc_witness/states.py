"""Multipartite pure states over labeled subsystem layouts.

Amplitudes are indexed lexicographically over the part indices in layout
order, first part most significant (C order). All operations are pure
functions over immutable values.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass

import numpy as np

from .majorization import _NEG_CLIP, _ZERO_NORM, DEFAULT_TOL, NORM_NOTE_THRESHOLD, SchmidtVector
from .majorization import _check_tol, _is_complex, _is_integer_at_least


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered (label, dimension) pairs describing a composite system.

    ``labels``, ``dims`` and the total dimension ``dim`` are computed once,
    on construction; they are not fields, so equality, hashing and repr
    depend on ``parts`` alone.
    """

    parts: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        parts = tuple((str(l), d) for l, d in self.parts)
        if not parts:
            raise ValueError("layout needs at least one part")
        labels = tuple(l for l, _ in parts)
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate part labels in {list(labels)}")
        for label, dim in parts:
            if not label:
                raise ValueError("part labels must be nonempty")
            if "," in label or ":" in label:
                raise ValueError(f"part label {label!r} holds ',' or ':', which separate labels in a cut")
            if not _is_integer_at_least(dim, 1):
                raise ValueError(f"part {label!r} has invalid dimension {dim!r}")
        dims = tuple(int(d) for _, d in parts)
        object.__setattr__(self, "parts", tuple(zip(labels, dims)))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "dim", math.prod(dims))

    @classmethod
    def of(cls, **parts: int) -> "SubsystemLayout":
        """Build from keyword order, e.g. ``SubsystemLayout.of(A=3, B=3)``."""
        return cls(tuple(parts.items()))

    def dim_of(self, label: str) -> int:
        return self.dims[self.position(label)]

    def position(self, label: str) -> int:
        for i, (l, _) in enumerate(self.parts):
            if l == label:
                return i
        raise KeyError(label)

    def __str__(self) -> str:
        return " x ".join(f"{l}:{d}" for l, d in self.parts)


@dataclass(frozen=True)
class Bipartition:
    """A two-block split of a layout's labels, e.g. AC versus BD."""

    left: tuple[str, ...]
    right: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "left", tuple(self.left))
        object.__setattr__(self, "right", tuple(self.right))
        if not self.left or not self.right:
            raise ValueError("both sides of a bipartition must be nonempty")
        for side in (self.left, self.right):
            for label in side:
                if side.count(label) > 1:
                    raise ValueError(f"label {label!r} is repeated within a side of the bipartition")
        if set(self.left) & set(self.right):
            raise ValueError("bipartition sides must be disjoint")

    def __str__(self) -> str:
        # plain joining reads back only when every label is one character; otherwise separate with commas
        sep = "" if all(len(label) == 1 for label in self.left + self.right) else ","
        return sep.join(self.left) + ":" + sep.join(self.right)


def parse_cut(text: str, layout: SubsystemLayout) -> Bipartition:
    """Parse ``"AC:BD"`` (or ``"A,C:B,D"``) against a layout's labels."""
    if text.count(":") != 1:
        raise ValueError(f"cut must contain exactly one ':', got {text!r}")
    chunks = [chunk.strip() for chunk in text.split(":")]
    sides = []
    for i, chunk in enumerate(chunks):
        if "," in chunk:
            side = tuple(s.strip() for s in chunk.split(",") if s.strip())
            unknown = [label for label in side if label not in layout.labels]
            if unknown:
                raise ValueError(f"cannot match {unknown[0]!r} against layout labels {layout.labels}")
            sides.append(side)
            continue
        try:
            sides.append(_split_labels(chunk, layout))
        except ValueError as exc:
            # greedy matching misses a spelling that a shorter first label allows
            spelling = _spelling(chunk, layout.labels)
            if spelling is None:
                raise
            hint = ":".join(",".join(spelling) if j == i else c for j, c in enumerate(chunks))
            raise ValueError(f"{exc}; separate the labels with commas, as in {hint!r}") from None
    return Bipartition(sides[0], sides[1])


def _split_labels(chunk: str, layout: SubsystemLayout) -> tuple[str, ...]:
    # Greedy longest-match so multi-character labels stay parseable.
    known = sorted(layout.labels, key=len, reverse=True)
    out: list[str] = []
    rest = chunk
    while rest:
        for label in known:
            if rest.startswith(label):
                out.append(label)
                rest = rest[len(label):]
                break
        else:
            raise ValueError(f"cannot match {rest!r} against layout labels {layout.labels}")
    return tuple(out)


def _spelling(chunk: str, labels) -> tuple[str, ...] | None:
    """One way to write ``chunk`` as a sequence of ``labels``, or None."""
    ways = {len(chunk): ()}  # ways[i] spells chunk[i:]; filled from the end, so no suffix is tried twice
    for i in range(len(chunk) - 1, -1, -1):
        for label in labels:
            rest = ways.get(i + len(label))
            if rest is not None and chunk.startswith(label, i):
                ways[i] = (label, *rest)
                break
    return ways.get(0)


class PureState:
    """Normalized complex amplitude vector over a subsystem layout.

    The constructor normalizes its input and records the pre-normalization
    norm in ``input_norm``; downstream reports flag inputs whose norm
    deviated from 1 by more than NORM_NOTE_THRESHOLD.
    """

    __slots__ = ("layout", "amplitudes", "input_norm")

    def __init__(self, layout: SubsystemLayout, amplitudes) -> None:
        _require_numbers(amplitudes)
        with np.errstate(over="ignore"):
            self._normalize(layout, amplitudes)

    @classmethod
    def _extend(cls, out: list, layout: SubsystemLayout, rows) -> None:
        """Append to ``out`` the state on ``layout`` of each amplitude row, normalized as the constructor does.

        One errstate serves every row, where the constructor enters one per
        state. ``rows`` is read once, in order; when reading a row raises,
        or its state cannot be normalized, ``out`` holds the states before it.
        """
        with np.errstate(over="ignore"):
            for row in rows:
                state = object.__new__(cls)
                state._normalize(layout, row)
                out.append(state)

    def _normalize(self, layout: SubsystemLayout, amplitudes) -> None:
        # called under np.errstate(over="ignore"): the squares may overflow, and an infinite norm is refused here
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amps.size != layout.dim:
            raise ValueError(
                f"expected {layout.dim} amplitudes for layout {layout}, got {amps.size}"
            )
        re, im = amps.real, amps.imag
        norm = math.sqrt(re.dot(re) + im.dot(im))  # np.linalg.norm's formula, without its wrapper
        if not math.isfinite(norm):
            raise ValueError(f"amplitude norm {norm!r} is not finite")
        if norm < _ZERO_NORM:
            raise ValueError("cannot normalize a zero state")
        amps = amps / norm
        amps.setflags(write=False)
        self.layout = layout
        self.amplitudes = amps
        self.input_norm = norm

    @classmethod
    def _wrap(cls, layout: SubsystemLayout, amplitudes: np.ndarray) -> "PureState":
        # Internal: amplitudes already unit-norm; skip renormalization so
        # pure reindexing operations stay bit-exact.
        obj = object.__new__(cls)
        amplitudes = np.asarray(amplitudes, dtype=complex).reshape(-1)
        amplitudes.setflags(write=False)
        obj.layout = layout
        obj.amplitudes = amplitudes
        obj.input_norm = 1.0
        return obj

    def __repr__(self) -> str:
        return f"PureState({self.layout}, dim={self.layout.dim})"


def _require_numbers(amplitudes) -> None:
    """Raise ValueError, naming the entry, unless ``amplitudes`` holds only numbers.

    A numpy array passes on its dtype alone (integer, float or complex), so
    a NaN in it is left to the norm's refusal, and an array of bools or
    strings is refused. Any other input, nested or flat, and an object
    array, is read entry by entry in C order, and each entry must pass
    _is_complex: a bool, a string, None or a non-finite number is refused.
    """
    if isinstance(amplitudes, np.ndarray) and amplitudes.dtype.kind != "O":
        if amplitudes.dtype.kind not in "iufc":
            first = amplitudes.flat[0] if amplitudes.size else None
            raise ValueError(
                f"amplitudes must be numbers, got an array of dtype {amplitudes.dtype}: amplitude 0 is {first!r}"
            )
        return
    for i, value in enumerate(np.asarray(amplitudes, dtype=object).flat):
        if not _is_complex(value):
            raise ValueError(f"amplitude {i} must be a finite real or complex number, got {value!r}")


def basis_state(layout: SubsystemLayout, indices) -> PureState:
    """Computational basis ket |i1 i2 ...> for the given per-part indices."""
    indices = tuple(indices)
    if len(indices) != len(layout.parts):
        raise ValueError("one index per part required")
    flat = 0
    for idx, (label, dim) in zip(indices, layout.parts):
        if not (_is_integer_at_least(idx, 0) and idx < dim):
            raise ValueError(f"index {idx!r} for part {label}:{dim} is not an integer in range({dim})")
        flat = flat * dim + int(idx)
    amps = np.zeros(layout.dim, dtype=complex)
    amps[flat] = 1.0
    return PureState._wrap(layout, amps)


def inner(a: PureState, b: PureState) -> complex:
    """Inner product <a|b>; layouts must match."""
    if a.layout != b.layout:
        raise ValueError("inner product requires matching layouts")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor product; b's parts are appended after a's."""
    if set(a.layout.labels) & set(b.layout.labels):
        raise ValueError(
            f"duplicate labels in tensor product: {set(a.layout.labels) & set(b.layout.labels)}"
        )
    layout = SubsystemLayout(a.layout.parts + b.layout.parts)
    return PureState._wrap(layout, np.kron(a.amplitudes, b.amplitudes))


def permute_parts(s: PureState, new_order) -> PureState:
    """Reindex amplitudes so parts appear in ``new_order``.

    The physical state is unchanged; a round trip with the inverse
    permutation restores the amplitude vector bit for bit.
    """
    new_order = tuple(new_order)
    if sorted(new_order) != sorted(s.layout.labels):
        raise ValueError(f"{new_order} is not a permutation of {s.layout.labels}")
    if new_order == s.layout.labels:
        return s
    axes = tuple(s.layout.position(l) for l in new_order)
    reshaped = s.amplitudes.reshape(s.layout.dims)
    new_layout = SubsystemLayout(tuple(s.layout.parts[i] for i in axes))
    return PureState._wrap(new_layout, reshaped.transpose(axes).reshape(-1))


def relabel(s: PureState, new_labels) -> PureState:
    """Rename parts in place (dimensions and amplitudes unchanged)."""
    new_labels = tuple(new_labels)
    if len(new_labels) != len(s.layout.parts):
        raise ValueError("one new label per part required")
    layout = SubsystemLayout(tuple((l, d) for l, (_, d) in zip(new_labels, s.layout.parts)))
    return PureState._wrap(layout, s.amplitudes)


def conjugate(s: PureState) -> PureState:
    """Componentwise complex conjugate in the computational basis."""
    return PureState._wrap(s.layout, np.conj(s.amplitudes))


_LAYOUTS: dict[tuple, SubsystemLayout] = {}
_LAYOUTS_KEPT = 1024  # past this many, a layout is built afresh and not kept, so the memo stays bounded


def _interned_layout(parts: tuple) -> SubsystemLayout:
    """The layout of ``parts``, (str label, dimension) pairs: one shared object per distinct parts.

    Parsing a file builds its layouts here, so a batch of files on the same
    layout builds it once. The caller checks the dimensions first, since a
    bool finds the key of its int. Invalid parts raise the constructor's
    ValueError and are never kept.
    """
    found = _LAYOUTS.get(parts)
    if found is None:
        found = SubsystemLayout(parts)
        if len(_LAYOUTS) < _LAYOUTS_KEPT:
            _LAYOUTS[parts] = found
    return found


def _detector_layout(layout: SubsystemLayout, dims) -> SubsystemLayout:
    """Where the engine's own detectors live: ``dims`` on the first capital letters ``layout`` does not use.

    The result depends only on the labels and ``dims``, so it is interned.
    """
    free = (c for c in string.ascii_uppercase if c not in layout.labels)
    return _interned_layout(tuple(zip(free, dims)))


def _require_two_parts(layout: SubsystemLayout, subject: str) -> None:
    """Raise ValueError, naming ``subject``, unless ``layout`` has exactly two parts."""
    if len(layout.parts) != 2:
        raise ValueError(f"{subject} needs a two-part layout, got {layout}")


def _split_cut(layout: SubsystemLayout, cut: Bipartition) -> tuple[tuple[str, ...], tuple[str, ...]]:
    if set(cut.left) | set(cut.right) != set(layout.labels):  # Bipartition keeps its sides disjoint
        raise ValueError(f"cut {cut} does not bipartition layout {layout}")
    left = tuple(l for l in layout.labels if l in set(cut.left))
    right = tuple(l for l in layout.labels if l in set(cut.right))
    return left, right


def _stack(states) -> np.ndarray:
    """The read-only (k, d_1, ..., d_n) amplitude tensor of states on one layout.

    Public entry points call this once per state set they take; the
    private helpers below take the stack.
    """
    if not states:
        raise ValueError("empty state set")
    layout = states[0].layout
    for s in states[1:]:
        if s.layout is not layout and s.layout != layout:
            raise ValueError(f"mixed layouts: {s.layout} vs {layout}")
    stack = np.array([s.amplitudes for s in states]).reshape(len(states), *layout.dims)
    stack.setflags(write=False)
    return stack


def _states_from_rows(layout: SubsystemLayout, stack: np.ndarray) -> list[PureState]:
    """The states on ``layout`` whose amplitudes are the rows of a read-only (k, ...) complex stack of unit vectors.

    Each state holds a view of its row, not renormalized, so the states keep the stack's bytes.
    """
    return [PureState._wrap(layout, row) for row in stack.reshape(len(stack), -1)]


def _cut_matrices(stack: np.ndarray, layout: SubsystemLayout, cut: Bipartition) -> np.ndarray:
    """A stack on ``layout`` as a (k, dim left, dim right) stack of amplitude matrices across the cut.

    Each side keeps its parts in layout order.
    """
    left, right = _split_cut(layout, cut)
    axes = (1 + layout.position(l) for l in left + right)
    dl = math.prod(layout.dim_of(l) for l in left)
    return stack.transpose(0, *axes).reshape(len(stack), dl, -1)


def schmidt(s: PureState, cut: Bipartition) -> SchmidtVector:
    """Squared singular values of the amplitude matrix across the cut.

    The state is regrouped so the cut's left labels come first (in layout
    order), reshaped to (dim left x dim right), and decomposed; the result
    has min(dim left, dim right) descending entries summing to 1.
    """
    return SchmidtVector(_schmidt_spectra(_cut_matrices(_stack([s]), s.layout, cut))[0])


def _schmidt_spectra(matrices: np.ndarray) -> np.ndarray:
    """The squared singular values, descending, of each amplitude matrix of a (..., m, n) stack."""
    return _singular_values(matrices) ** 2


# np.linalg.svd's own gufunc and non-convergence hook, looked up once: on these
# tiny stacks its wrapper costs more than LAPACK. numpy < 2 names them differently.
try:
    from numpy.linalg._linalg import _raise_linalgerror_svd_nonconvergence as _svd_failed
    from numpy.linalg._umath_linalg import svd as _lapack_svd
except ImportError:
    _lapack_svd = None


def _singular_values(matrices: np.ndarray) -> np.ndarray:
    """The singular values, descending, of each matrix of a complex128 or float64 (..., m, n) stack.

    The bytes of ``np.linalg.svd(matrices, compute_uv=False)``, which this
    calls where numpy lacks the gufunc. A stack LAPACK cannot decompose,
    such as one holding NaN, raises LinAlgError("SVD did not converge").
    """
    if _lapack_svd is None:
        return np.linalg.svd(matrices, compute_uv=False)
    signature = "D->d" if matrices.dtype.kind == "c" else "d->d"
    with np.errstate(call=_svd_failed, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return _lapack_svd(matrices, signature=signature)


def _is_product(spectra: np.ndarray, tol: float) -> np.ndarray:
    """Whether each descending Schmidt spectrum of a (..., t) stack has its largest entry within tol of 1."""
    return spectra[..., 0] >= 1.0 - tol


def is_product(s: PureState, cut: Bipartition, tol: float = DEFAULT_TOL) -> bool:
    """True iff the largest Schmidt coefficient is within tol of 1.

    The test compares one Schmidt entry, not partial sums, so its floor is
    _NEG_CLIP, below which Schmidt entries are float dust.
    """
    tol = _check_tol(tol, floor=_NEG_CLIP)
    return bool(_is_product(schmidt(s, cut).entries, tol))


@dataclass(frozen=True)
class StateSetReport:
    """Orthonormality report for a set of states on a shared layout."""

    passed: bool
    size: int
    dim: int
    complete: bool
    max_offdiagonal: float
    max_norm_error: float
    gram: np.ndarray
    normalization_notes: tuple[str, ...]


def _gram(stack: np.ndarray) -> tuple[np.ndarray, float, float]:
    """A stack's read-only Gram matrix, largest off-diagonal modulus and largest norm error."""
    k = len(stack)
    mat = stack.reshape(k, -1)
    gram = mat @ mat.conj().T
    diag = gram.real.diagonal()
    max_norm_err = float(np.abs(np.sqrt(diag) - 1.0).max())
    off = np.abs(gram)
    off.flat[:: k + 1] = 0.0  # the diagonal holds norms, not overlaps
    max_off = float(off.max())
    gram.setflags(write=False)
    return gram, max_off, max_norm_err


def validate_state_set(states, tol: float = DEFAULT_TOL) -> StateSetReport:
    """Check pairwise orthogonality, norms, and completeness of a state set."""
    tol = _check_tol(tol)
    states = list(states)
    stack = _stack(states)
    gram, max_off, max_norm_err = _gram(stack)
    dim = stack[0].size
    return StateSetReport(
        passed=max_off <= tol and max_norm_err <= tol,
        size=len(states),
        dim=dim,
        complete=len(states) == dim,
        max_offdiagonal=max_off,
        max_norm_error=max_norm_err,
        gram=gram,
        normalization_notes=tuple(_norm_notes("state", range(len(states)), states)),
    )


def _require_orthonormal(stack: np.ndarray, noun: str) -> None:
    """Raise ValueError, naming the set by ``noun``, unless a stack is orthonormal."""
    _, max_off, max_norm_err = _gram(stack)
    if not (max_off <= DEFAULT_TOL and max_norm_err <= DEFAULT_TOL):
        raise ValueError(f"{noun} is not orthonormal (max off-diagonal {max_off:.3g})")


def _require_complete(stack: np.ndarray, noun: str) -> None:
    """Raise ValueError, naming the set by ``noun``, unless a stack holds as many states as their dimension."""
    if len(stack) != stack[0].size:
        raise ValueError(f"{noun} is incomplete: {len(stack)} states in dimension {stack[0].size}")


def _norm_notes(kind: str, names, states) -> list[str]:
    """A note for each state whose input norm was off 1 by more than NORM_NOTE_THRESHOLD."""
    return [
        f"{kind} {name}: input norm {s.input_norm:.9g} (renormalized)"
        for name, s in zip(names, states)
        if abs(s.input_norm - 1.0) > NORM_NOTE_THRESHOLD
    ]


def random_state(layout: SubsystemLayout, rng: np.random.Generator) -> PureState:
    """Haar-random pure state on the layout."""
    z = rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)
    return PureState(layout, z)


def random_orthonormal_basis(layout: SubsystemLayout, seed: int) -> list[PureState]:
    """Haar-random orthonormal basis, deterministic in the seed, an integer >= 0.

    A complex Gaussian matrix is QR-orthonormalized with the R-diagonal
    phase fix; columns become the basis states.
    """
    if not _is_integer_at_least(seed, 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    columns = _haar_unitary(np.random.default_rng(seed), layout.dim).T.copy()
    columns.setflags(write=False)
    return _states_from_rows(layout, columns)


def _haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))

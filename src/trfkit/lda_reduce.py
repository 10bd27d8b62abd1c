"""Fisher discriminant reduction of word feature vectors.

Directions maximise between-class over within-class scatter, found as the
top generalised eigenvectors of (S_b, S_w). S_w is stabilised with a
trace-scaled ridge, epsilon * trace(S_w) / D on the diagonal, before
inversion. The effective component count is clamped to
min(requested, n_classes - 1, D); requesting more emits
ComponentClampWarning. Projection columns are unit length.

numpy alone does the work: the generalised problem is reduced to a
standard symmetric one through the Cholesky factor of the ridged S_w,
and the within-class distances come from blocks of the Gram matrix.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, ValidationError
from .tensorio import _read_checked, write_tensor

__all__ = [
    "SCATTER_RIDGE_EPS",
    "ComponentClampWarning",
    "LdaModel",
    "SeparationScore",
    "fit_lda",
    "transform",
    "separation_report",
    "write_lda",
    "read_lda",
]

SCATTER_RIDGE_EPS = 1e-6
_DISTANCE_BLOCK = 128  # rows of the upper triangle per Gram block in _mean_pairwise_distance
# pairs whose squared distance is below this share of |a|^2 + |b|^2 lose bits
# to cancellation in the Gram identity and are recomputed from a - b
_CANCELLATION_SHARE = 2.0**-6


class ComponentClampWarning(UserWarning):
    """Requested more discriminant components than the data can support."""


@dataclass
class LdaModel:
    """Fitted discriminant basis: projection columns ordered by eigenvalue."""

    projection: np.ndarray  # (D, n_components), unit-norm columns
    class_labels: list[str]
    class_means: np.ndarray  # (n_classes, D), in class_labels order
    n_components: int
    eigenvalues: np.ndarray  # (n_components,), descending
    requested_components: int

    def __post_init__(self):
        self.projection = np.asarray(self.projection, dtype=np.float64)
        self.class_means = np.asarray(self.class_means, dtype=np.float64)
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=np.float64)
        if self.projection.ndim != 2 or self.projection.shape[1] != self.n_components:
            raise PreconditionError(
                f"projection must be (D, {self.n_components}), got {self.projection.shape}"
            )
        if self.class_means.shape != (len(self.class_labels), self.projection.shape[0]):
            raise PreconditionError(
                f"class_means must be ({len(self.class_labels)}, {self.projection.shape[0]}), "
                f"got {self.class_means.shape}"
            )
        if self.eigenvalues.shape != (self.n_components,):
            raise PreconditionError(
                f"eigenvalues must be ({self.n_components},), got {self.eigenvalues.shape}"
            )

    @property
    def clamped(self) -> bool:
        return self.n_components < self.requested_components


@dataclass
class SeparationScore:
    """Cluster geometry of one class in discriminant space."""

    label: str
    mean_within_distance: float
    nearest_centroid_distance: float
    nearest_class: str


def _class_partition(vectors: np.ndarray, labels) -> tuple[list[str], dict]:
    labels = [str(lab) for lab in labels]
    if vectors.ndim != 2:
        raise PreconditionError(f"vectors must be 2-D, got ndim={vectors.ndim}")
    if len(labels) != vectors.shape[0]:
        raise PreconditionError(
            f"{len(labels)} labels for {vectors.shape[0]} vectors"
        )
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise PreconditionError(f"need at least 2 classes, got {len(classes)}")
    index = dict(zip(classes, range(len(classes))))
    inverse = np.fromiter(map(index.__getitem__, labels), dtype=np.intp, count=len(labels))
    # one stable sort by class lists each class's rows in ascending order
    by_class = np.argsort(inverse, kind="stable")
    members = dict(zip(classes, np.split(by_class, np.cumsum(np.bincount(inverse))[:-1])))
    for c in classes:
        if members[c].size < 2:
            raise PreconditionError(f"class {c!r} has {members[c].size} sample(s), need >= 2")
    return classes, members


def fit_lda(vectors, labels, n_components: int) -> LdaModel:
    """Fit a Fisher discriminant basis.

    Parameters
    ----------
    vectors : array (N, D)
        Feature vectors.
    labels : sequence of str, length N
        Class label per vector; every class needs at least two samples.
    n_components : int
        Requested basis size; clamped to min(n_components, C - 1, D)
        with a ComponentClampWarning when that bites.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if n_components < 1:
        raise PreconditionError(f"n_components must be >= 1, got {n_components}")
    classes, members = _class_partition(vectors, labels)
    D = vectors.shape[1]

    overall = vectors.mean(axis=0)
    means = np.stack([vectors[members[c]].mean(axis=0) for c in classes])
    S_w = np.zeros((D, D))
    S_b = np.zeros((D, D))
    for ci, c in enumerate(classes):
        block = vectors[members[c]] - means[ci]
        S_w += block.T @ block
        offset = (means[ci] - overall)[:, None]
        S_b += members[c].size * (offset @ offset.T)

    trace = float(np.trace(S_w))
    ridge = SCATTER_RIDGE_EPS * (trace / D if trace > 0.0 else 1.0)
    S_w_reg = S_w + ridge * np.eye(D)

    effective = min(n_components, len(classes) - 1, D)
    if effective < n_components:
        warnings.warn(
            ComponentClampWarning(
                f"requested {n_components} components but only {effective} are "
                f"supported by {len(classes)} classes in {D} dimensions"
            ),
            stacklevel=2,
        )

    # LAPACK sygvd's reduction: with S_w_reg = L Lᵀ, S_b v = w S_w_reg v becomes the
    # standard problem L⁻¹ S_b L⁻ᵀ u = w u, and v = L⁻ᵀ u
    L_inv = np.linalg.inv(np.linalg.cholesky(S_w_reg))
    eigvals, eigvecs = np.linalg.eigh(L_inv @ S_b @ L_inv.T)
    eigvecs = L_inv.T @ eigvecs
    order = np.argsort(eigvals)[::-1][:effective]
    basis = eigvecs[:, order]
    basis = basis / np.linalg.norm(basis, axis=0, keepdims=True)
    # deterministic sign: largest-magnitude entry of each column is positive
    for j in range(basis.shape[1]):
        pivot = np.argmax(np.abs(basis[:, j]))
        if basis[pivot, j] < 0:
            basis[:, j] = -basis[:, j]

    return LdaModel(
        projection=basis,
        class_labels=classes,
        class_means=means,
        n_components=effective,
        eigenvalues=eigvals[order],
        requested_components=n_components,
    )


def transform(model: LdaModel, vectors) -> np.ndarray:
    """Project vectors onto the discriminant basis."""
    vectors = np.asarray(vectors, dtype=np.float64)
    single = vectors.ndim == 1
    if single:
        vectors = vectors[None, :]
    if vectors.ndim != 2 or vectors.shape[1] != model.projection.shape[0]:
        raise PreconditionError(
            f"vectors must have {model.projection.shape[0]} columns, got shape {vectors.shape}"
        )
    out = vectors @ model.projection
    return out[0] if single else out


def separation_report(model: LdaModel, vectors, labels) -> list[SeparationScore]:
    """Per-class spread versus distance to the nearest other class.

    Reports, in discriminant space, the mean pairwise distance inside
    each class and the distance from its centroid to the nearest other
    class centroid. Well-separated data has within << between.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    classes, members = _class_partition(vectors, labels)
    projected = transform(model, vectors)
    centroids = {c: projected[members[c]].mean(axis=0) for c in classes}
    scores = []
    for c in classes:
        pts = projected[members[c]]
        within = _mean_pairwise_distance(pts)
        best_name, best_dist = None, np.inf
        for other in classes:
            if other == c:
                continue
            d = float(np.linalg.norm(centroids[c] - centroids[other]))
            if d < best_dist:
                best_name, best_dist = other, d
        scores.append(
            SeparationScore(
                label=c,
                mean_within_distance=within,
                nearest_centroid_distance=best_dist,
                nearest_class=best_name,
            )
        )
    return scores


def _mean_pairwise_distance(points: np.ndarray) -> float:
    """Mean Euclidean distance over all pairs of the rows of points (at least two rows).

    The rows are scaled by an exact power of two and centred, so nothing
    overflows or underflows. Each block of _DISTANCE_BLOCK rows meets itself
    and the rows after it through |a - b|² = |a|² + |b|² - 2 a·b; pairs where
    that difference cancels are recomputed from a - b.
    """
    exponent = int(np.frexp(np.abs(points).max())[1])
    x = np.ldexp(points, -exponent)
    x -= x.mean(axis=0)
    sq = np.einsum("ij,ij->i", x, x)
    n = x.shape[0]
    total = 0.0
    for a in range(0, n, _DISTANCE_BLOCK):
        b = min(a + _DISTANCE_BLOCK, n)
        d2 = x[a:b] @ x[a:].T
        d2 *= -2.0
        d2 += sq[a:b, None]
        d2 += sq[None, a:]
        near = d2 < _CANCELLATION_SHARE * (sq[a:b, None] + sq[None, a:])
        # columns a..b-1 hold the block's own pairs: keep each once, above the diagonal
        near[:, : b - a] = np.triu(near[:, : b - a], 1)
        if near.any():
            rows, cols = np.nonzero(near)
            diff = x[a + rows] - x[a + cols]
            d2[rows, cols] = np.einsum("ij,ij->i", diff, diff)
        d2[:, : b - a] = np.triu(d2[:, : b - a], 1)
        total += float(np.sqrt(d2, out=d2).sum())
    return float(np.ldexp(total / (n * (n - 1) / 2), exponent))


# ---------------------------------------------------------------------------
# serialisation


def write_lda(path, model: LdaModel) -> None:
    meta = {
        "class_labels": list(model.class_labels),
        "eigenvalues": [float(v) for v in model.eigenvalues],
        "class_means": [[float(v) for v in row] for row in model.class_means],
        "n_components": int(model.n_components),
        "requested_components": int(model.requested_components),
        "clamped": bool(model.clamped),
    }
    write_tensor(path, "f64", list(model.projection.shape), meta, model.projection)


def read_lda(path) -> LdaModel:
    projection, meta = _read_checked(path, 2, {
        "class_labels": "str list", "eigenvalues": "float list", "class_means": "float rows",
        "n_components": "int", "requested_components": "int",
    })
    try:
        return LdaModel(projection=projection, **meta)
    except PreconditionError as e:
        raise ValidationError(f"{path}: {e}") from None

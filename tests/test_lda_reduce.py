import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from trfkit.errors import PreconditionError
from trfkit.lda_reduce import (
    _DISTANCE_BLOCK,
    SCATTER_RIDGE_EPS,
    ComponentClampWarning,
    LdaModel,
    _class_partition,
    _mean_pairwise_distance,
    fit_lda,
    read_lda,
    separation_report,
    transform,
    write_lda,
)


def _two_blobs(seed=0, n=40, d=5, gap=6.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, d))
    b = rng.normal(size=(n, d))
    b[:, 0] += gap
    X = np.vstack([a, b])
    labels = ["a"] * n + ["b"] * n
    return X, labels


def test_axis_aligned_classes_give_axis_direction():
    X, labels = _two_blobs(seed=1)
    model = fit_lda(X, labels, n_components=1)
    direction = model.projection[:, 0]
    # sample scatter rotates the direction a little off the pure axis
    cosine = abs(direction[0]) / np.linalg.norm(direction)
    assert cosine >= 0.9
    # the projection actually separates the classes
    proj = X @ direction
    a, b = proj[:40], proj[40:]
    lo, hi = (a, b) if a.mean() < b.mean() else (b, a)
    assert lo.max() < hi.min()


def test_two_class_direction_matches_closed_form():
    # with two classes the single discriminant direction is
    # S_w^-1 (mu_b - mu_a), up to scale and sign
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        d = 6
        a = rng.normal(size=(30, d)) @ rng.normal(size=(d, d)) * 0.5
        b = rng.normal(size=(30, d)) + rng.normal(size=d) * 3.0
        X = np.vstack([a, b])
        labels = ["a"] * 30 + ["b"] * 30
        model = fit_lda(X, labels, n_components=1)

        mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
        S_w = (a - mu_a).T @ (a - mu_a) + (b - mu_b).T @ (b - mu_b)
        oracle = np.linalg.solve(S_w, mu_b - mu_a)
        got = model.projection[:, 0]
        cosine = abs(oracle @ got) / (np.linalg.norm(oracle) * np.linalg.norm(got))
        assert cosine >= 0.999


def test_component_count_clamps_to_classes_minus_one():
    rng = np.random.default_rng(2)
    d, n_classes = 12, 9
    X = np.vstack(
        [rng.normal(size=(10, d)) + 4.0 * rng.normal(size=d) for _ in range(n_classes)]
    )
    labels = [f"k{c}" for c in range(n_classes) for _ in range(10)]
    with pytest.warns(ComponentClampWarning):
        model = fit_lda(X, labels, n_components=9)
    assert model.n_components == 8
    assert model.requested_components == 9
    assert model.clamped
    assert model.projection.shape == (d, 8)


def test_no_warning_when_request_fits():
    X, labels = _two_blobs()
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", ComponentClampWarning)
        model = fit_lda(X, labels, n_components=1)
    assert not model.clamped


def test_eigenvalues_sorted_and_columns_normalized():
    rng = np.random.default_rng(3)
    d = 8
    X = np.vstack(
        [rng.normal(size=(15, d)) + 3.0 * rng.normal(size=d) for _ in range(4)]
    )
    labels = [f"k{c}" for c in range(4) for _ in range(15)]
    model = fit_lda(X, labels, n_components=3)
    assert all(a >= b - 1e-12 for a, b in zip(model.eigenvalues, model.eigenvalues[1:]))
    norms = np.linalg.norm(model.projection, axis=0)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_sign_convention_is_deterministic():
    X, labels = _two_blobs(seed=4)
    a = fit_lda(X, labels, n_components=1)
    b = fit_lda(X.copy(), list(labels), n_components=1)
    assert np.array_equal(a.projection, b.projection)
    # largest-magnitude entry of each column is positive
    col = a.projection[:, 0]
    assert col[np.argmax(np.abs(col))] > 0


def test_projection_invariant_under_translation():
    X, labels = _two_blobs(seed=5)
    shifted = X + 13.7
    a = fit_lda(X, labels, n_components=1)
    b = fit_lda(shifted, labels, n_components=1)
    assert np.allclose(a.projection, b.projection, atol=1e-8)


def test_degenerate_within_scatter_still_solves():
    # identical points per class: S_w is exactly zero and only the ridge
    # keeps the generalized problem well posed
    X = np.array([[0.0, 0.0]] * 3 + [[1.0, 1.0]] * 3)
    labels = ["a"] * 3 + ["b"] * 3
    model = fit_lda(X, labels, n_components=1)
    assert np.all(np.isfinite(model.projection))


def _scipy_reference(X, labels, k):
    """Eigenvalues and sign-ruled unit projection from scipy's generalised eigh of (S_b, S_w_reg)."""
    import scipy.linalg

    labels = np.asarray(labels)
    D = X.shape[1]
    overall = X.mean(axis=0)
    S_w, S_b = np.zeros((D, D)), np.zeros((D, D))
    for c in sorted(set(labels)):
        block = X[labels == c]
        centred = block - block.mean(axis=0)
        S_w += centred.T @ centred
        offset = block.mean(axis=0) - overall
        S_b += block.shape[0] * np.outer(offset, offset)
    S_w_reg = S_w + SCATTER_RIDGE_EPS * np.trace(S_w) / D * np.eye(D)
    w, v = scipy.linalg.eigh(S_b, S_w_reg)
    order = np.argsort(w)[::-1][:k]
    basis = v[:, order] / np.linalg.norm(v[:, order], axis=0)
    pivots = np.argmax(np.abs(basis), axis=0)
    return w[order], basis * np.sign(basis[pivots, np.arange(k)])


def _classes(seed, n_classes, d, n_per=25, spread=3.0):
    rng = np.random.default_rng(seed)
    mix = np.eye(d) + 0.3 * rng.normal(size=(d, d))  # correlated features, S_w well conditioned
    X = np.vstack([rng.normal(size=(n_per, d)) @ mix + spread * rng.normal(size=d) for _ in range(n_classes)])
    return X, [f"k{c}" for c in range(n_classes) for _ in range(n_per)]


def _near_singular_within_scatter(seed):
    # the last feature spreads 1e-4 as far as the others: its within-class variance
    # is 1e-8 of theirs, below the ridge, so S_w is singular but for the ridge
    X, labels = _classes(seed, 5, 6)
    X[:, -1] *= 1e-4
    return X, labels


@pytest.mark.parametrize(
    "X, labels, k",
    [pytest.param(*_classes(seed, 6, 8), 5, id=f"random{seed}") for seed in range(4)]
    + [pytest.param(*_near_singular_within_scatter(seed), 4, id=f"near_singular{seed}") for seed in range(2)]
    + [pytest.param(*_classes(seed, 4, 30), 3, id=f"wide{seed}") for seed in range(2)],
)
def test_eigen_reduction_matches_scipy_generalised_eigh(X, labels, k):
    model = fit_lda(X, labels, n_components=k)
    eigvals, projection = _scipy_reference(X, labels, k)
    np.testing.assert_allclose(model.eigenvalues, eigvals, rtol=1e-12, atol=0)
    np.testing.assert_allclose(model.projection, projection, rtol=0, atol=1e-10)


def test_single_class_rejected():
    X = np.random.default_rng(0).normal(size=(10, 3))
    with pytest.raises(PreconditionError):
        fit_lda(X, ["a"] * 10, n_components=1)


def test_tiny_class_rejected():
    X = np.random.default_rng(0).normal(size=(5, 3))
    with pytest.raises(PreconditionError):
        fit_lda(X, ["a", "a", "a", "a", "b"], n_components=1)


def test_labels_differing_by_a_trailing_nul_stay_apart():
    X, labels = _two_blobs(seed=2)
    labels = ["a" if lab == "a" else "a\x00" for lab in labels]
    assert fit_lda(X, labels, n_components=1).class_labels == ["a", "a\x00"]


def test_label_count_mismatch_rejected():
    X = np.random.default_rng(0).normal(size=(6, 3))
    with pytest.raises(PreconditionError):
        fit_lda(X, ["a", "b"], n_components=1)


def test_nonpositive_component_request_rejected():
    X, labels = _two_blobs()
    with pytest.raises(PreconditionError):
        fit_lda(X, labels, n_components=0)


# ---------------------------------------------------------------------------
# transform and reporting


def test_transform_applies_projection():
    X, labels = _two_blobs(seed=6)
    model = fit_lda(X, labels, n_components=1)
    out = transform(model, X)
    assert out.shape == (80, 1)
    assert np.allclose(out, X @ model.projection, atol=1e-15)


def test_transform_accepts_single_vector():
    X, labels = _two_blobs(seed=7)
    model = fit_lda(X, labels, n_components=1)
    one = transform(model, X[0])
    assert one.shape == (1,)
    assert one[0] == pytest.approx(float(X[0] @ model.projection[:, 0]))


def test_transform_rejects_wrong_width():
    X, labels = _two_blobs()
    model = fit_lda(X, labels, n_components=1)
    with pytest.raises(PreconditionError):
        transform(model, np.zeros((4, 3)))


def test_separation_report_prefers_true_neighbours():
    rng = np.random.default_rng(8)
    d = 4
    centers = {"a": np.zeros(d), "b": 10.0 * np.ones(d), "c": -10.0 * np.ones(d)}
    X, labels = [], []
    for name, mu in centers.items():
        X.append(mu + 0.1 * rng.normal(size=(20, d)))
        labels += [name] * 20
    X = np.vstack(X)
    model = fit_lda(X, labels, n_components=2)
    scores = separation_report(model, X, labels)
    by_label = {s.label: s for s in scores}
    assert set(by_label) == {"a", "b", "c"}
    for s in scores:
        assert s.mean_within_distance < s.nearest_centroid_distance
    assert by_label["b"].nearest_class == "a"
    assert by_label["c"].nearest_class == "a"


def _points(n, kind):
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, 9))
    if kind == "duplicated":
        X[n // 2 :] = X[: n - n // 2]
    return {"offset": X + 1e6, "tiny": X * 1e-150, "huge": X * 1e150}.get(kind, X)


@pytest.mark.parametrize("kind", ["plain", "duplicated", "offset", "tiny", "huge"])
@pytest.mark.parametrize("n", [2, 3, _DISTANCE_BLOCK - 1, _DISTANCE_BLOCK, _DISTANCE_BLOCK + 1, 1000])
def test_mean_pairwise_distance_matches_pdist(n, kind):
    from scipy.spatial.distance import pdist

    X = _points(n, kind)
    np.testing.assert_allclose(_mean_pairwise_distance(X), np.mean(pdist(X)), rtol=1e-12, atol=0)


def test_roundtrip_through_file(tmp_path):
    X, labels = _two_blobs(seed=9)
    model = fit_lda(X, labels, n_components=1)
    path = tmp_path / "lda.btsr"
    write_lda(path, model)
    back = read_lda(path)
    assert isinstance(back, LdaModel)
    assert back.projection.tobytes() == model.projection.tobytes()
    assert back.class_labels == model.class_labels
    assert back.n_components == 1
    assert back.requested_components == 1
    assert not back.clamped
    assert np.allclose(back.class_means, model.class_means, atol=0)
    assert np.allclose(back.eigenvalues, model.eigenvalues, atol=0)


@pytest.mark.parametrize("eigenvalues", [[], [1.0, 2.0], [[1.0]]], ids=["none", "two", "rows"])
def test_eigenvalues_must_be_one_per_component(eigenvalues):
    with pytest.raises(PreconditionError, match="eigenvalues must be"):
        LdaModel(np.eye(2, 1), ["p", "q"], np.zeros((2, 2)), 1, eigenvalues, 1)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_lda_file_roundtrip_property(tmp_path, data):
    d = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(1, d))
    labels = data.draw(st.lists(st.text(max_size=4), min_size=2, max_size=6, unique=True))
    model = LdaModel(
        projection=data.draw(arrays(np.float64, (d, k), elements=_FINITE)),
        class_labels=labels,
        class_means=data.draw(arrays(np.float64, (len(labels), d), elements=_FINITE)),
        n_components=k,
        eigenvalues=data.draw(arrays(np.float64, (k,), elements=_FINITE)),
        requested_components=data.draw(st.integers(k, k + 3)),
    )
    path = tmp_path / "lda.btsr"  # the same file every example
    write_lda(path, model)
    back = read_lda(path)
    assert back.projection.tobytes() == model.projection.tobytes()
    assert back.class_labels == labels
    assert back.class_means.tobytes() == model.class_means.tobytes()
    assert back.eigenvalues.tobytes() == model.eigenvalues.tobytes()
    assert back.n_components == k
    assert back.requested_components == model.requested_components


def _looped_partition(labels):
    """Classes and member rows as a per-label loop finds them: the reference."""
    labels = [str(lab) for lab in labels]
    classes = sorted(set(labels))
    return classes, {c: np.array([i for i, lab in enumerate(labels) if lab == c]) for c in classes}


# labels of several types, some of which str() maps to the same class ("1" and 1)
_LABELS = st.one_of(
    st.text(max_size=3), st.integers(-2, 2), st.sampled_from(["NOUN", "VERB", None, 1.5, "\x00", "a\x00"])
)


@settings(max_examples=200, deadline=None)
@given(labels=st.lists(_LABELS, min_size=1, max_size=60))
def test_class_partition_is_the_looped_partition(labels):
    classes, members = _looped_partition(labels)
    vectors = np.zeros((len(labels), 2))
    short = [c for c in classes if members[c].size < 2]
    if len(classes) < 2 or short:
        message = (
            f"need at least 2 classes, got {len(classes)}" if len(classes) < 2
            else f"class {short[0]!r} has {members[short[0]].size} sample(s), need >= 2"
        )
        with pytest.raises(PreconditionError, match=re.escape(message)):
            _class_partition(vectors, labels)
        return
    got_classes, got_members = _class_partition(vectors, labels)
    assert got_classes == classes
    assert list(got_members) == classes
    for c in classes:
        assert got_members[c].dtype == np.intp
        assert got_members[c].tolist() == members[c].tolist()

"""Correlation scoring, significance, and report assembly.

Per-channel skill is the Pearson correlation between predicted and
observed response, concatenated across the evaluation segments. The
p-value of a correlation r over n samples comes from
t = r * sqrt((n - 2) / (1 - r^2)) with n - 2 degrees of freedom,
two-sided. Subject-level p-values combine across subjects with Fisher's
method (X = -2 sum ln p, chi-square with 2k df); subject-level mean
correlations pool through the Fisher z-transform.
"""

import csv
from dataclasses import dataclass

import numpy as np

from ._util import correlate, scale_columns_in_place, scaled_columns
from .errors import PreconditionError, ValidationError
from .lagged_design import LagSpec, _check_rate
from .preprocess import SegmentSet
from .ridge_trf import TrfModel, _sparse_stack, flatten_trf
from .tensorio import ChannelLayout

__all__ = [
    "ChannelScore",
    "EvaluationReport",
    "GroupReport",
    "TopoRow",
    "pearson_r",
    "r_to_p",
    "fisher_combine",
    "mean_channel_r",
    "evaluate_subject",
    "group_report",
    "topo_report",
    "write_topo_csv",
]

_TINY_P = float(np.nextafter(0.0, 1.0))


@dataclass
class ChannelScore:
    channel: str
    r: float
    p: float


@dataclass
class EvaluationReport:
    """Per-subject skill: one score per channel plus their mean."""

    subject_id: str
    channels: list[ChannelScore]
    mean_r: float
    n_samples: int

    def subject_p(self) -> float:
        """Significance of the subject's mean-channel correlation."""
        return r_to_p(self.mean_r, self.n_samples)

    def to_json(self) -> dict:
        return {
            "subject_id": self.subject_id,
            "mean_r": self.mean_r,
            "channels": [{"name": c.channel, "r": c.r, "p": c.p} for c in self.channels],
        }


@dataclass
class GroupReport:
    """Cross-subject aggregation of evaluation reports."""

    subjects: list[EvaluationReport]
    pooled_r: float
    fisher_statistic: float
    fisher_df: int
    fisher_p: float

    def to_json(self) -> dict:
        return {
            "subjects": [s.to_json() for s in self.subjects],
            "pooled_r": self.pooled_r,
            "fisher": {
                "statistic": self.fisher_statistic,
                "df": self.fisher_df,
                "p": self.fisher_p,
            },
        }


@dataclass
class TopoRow:
    channel: str
    x: float
    y: float
    r: float
    p: float


def pearson_r(x, y) -> float:
    """Sample Pearson correlation of two equal-length series.

    A constant series raises DegenerateDataError; non-finite input that
    makes r non-finite raises NumericalError.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise PreconditionError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    return float(correlate(scaled_columns(x[:, None]), scaled_columns(y[:, None]))[0])


def r_to_p(r: float, n: int) -> float:
    """Two-sided p-value of a Pearson correlation over n samples."""
    import scipy.special

    if n < 3:
        raise PreconditionError(f"need n >= 3, got {n}")
    if not (-1.0 <= r <= 1.0):
        raise PreconditionError(f"|r| must not exceed 1, got {r}")
    denom = 1.0 - r * r
    if denom <= 0.0:
        return _TINY_P
    t = r * np.sqrt((n - 2) / denom)
    p = 2.0 * float(scipy.special.stdtr(n - 2, -abs(t)))
    return min(1.0, p) if p > 0.0 else _TINY_P


def fisher_combine(pvalues) -> tuple[float, int, float]:
    """Fisher's method: returns (statistic, df, combined p)."""
    import scipy.special

    pvalues = [float(p) for p in pvalues]
    if not pvalues:
        raise PreconditionError("need at least one p-value")
    for p in pvalues:
        if not (0.0 < p <= 1.0):
            raise PreconditionError(f"p-values must lie in (0, 1], got {p}")
    stat = -2.0 * float(np.sum(np.log(pvalues)))
    df = 2 * len(pvalues)
    p = float(scipy.special.chdtrc(df, stat))
    return stat, df, p if p > 0.0 else _TINY_P


def mean_channel_r(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean Pearson correlation across channels (columns)."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise PreconditionError(f"shape mismatch: {pred.shape} vs {target.shape}")
    if pred.ndim != 2:
        raise PreconditionError(f"expected 2-D arrays, got ndim={pred.ndim}")
    return float(np.mean(correlate(scaled_columns(pred), scaled_columns(target))))


def evaluate_subject(
    trf: TrfModel,
    test_segments: SegmentSet,
    spec: LagSpec,
    subject_id: str = "",
) -> EvaluationReport:
    """Score a fitted kernel on held-out segments.

    Predictions and targets are concatenated across the test segments
    before correlating, one score per channel. The test segments must be
    disjoint from the data the kernel was fitted on; that is the caller's
    responsibility (segment start indices identify the windows).
    """
    if len(test_segments) == 0:
        raise PreconditionError("test segment set is empty")
    if spec.lag_samples != trf.lag_spec.lag_samples or spec.fs_hz != trf.lag_spec.fs_hz:
        raise PreconditionError("lag spec does not match the fitted kernel")
    _check_rate(test_segments.fs_hz, spec, "segments")
    if list(test_segments.channel_names) != list(trf.channel_names):
        raise PreconditionError(
            f"segment channels {test_segments.channel_names} do not match "
            f"the kernel's {trf.channel_names}"
        )
    if test_segments.n_features != trf.n_features:
        raise PreconditionError(
            f"segments carry {test_segments.n_features} features, "
            f"kernel expects {trf.n_features}"
        )
    X, target = _sparse_stack(test_segments, range(len(test_segments)), spec)
    pred = X @ flatten_trf(trf)
    n = pred.shape[0]
    # both arrays are this function's own, so each is scaled where it lies
    rs = correlate(scale_columns_in_place(pred), scale_columns_in_place(target))
    channels = [
        ChannelScore(channel=name, r=float(r), p=r_to_p(float(r), n))
        for name, r in zip(trf.channel_names, rs)
    ]
    mean_r = float(np.mean(rs))
    return EvaluationReport(
        subject_id=subject_id, channels=channels, mean_r=mean_r, n_samples=n
    )


def group_report(reports: list[EvaluationReport]) -> GroupReport:
    """Aggregate subjects: Fisher-z pooled mean r, Fisher-combined p."""
    if not reports:
        raise PreconditionError("need at least one subject report")
    # clip away |r| = 1 so the z-transform stays finite
    zs = [np.arctanh(min(1.0 - 1e-15, max(-1.0 + 1e-15, rep.mean_r))) for rep in reports]
    pooled = float(np.tanh(np.mean(zs)))
    stat, df, p = fisher_combine([rep.subject_p() for rep in reports])
    return GroupReport(
        subjects=list(reports),
        pooled_r=pooled,
        fisher_statistic=stat,
        fisher_df=df,
        fisher_p=p,
    )


def topo_report(report: EvaluationReport, layout: ChannelLayout) -> list[TopoRow]:
    """Join channel scores with sensor positions, rows in layout order."""
    scores = {c.channel: c for c in report.channels}
    missing = [name for name in scores if name not in layout]
    if missing:
        raise ValidationError(
            f"channel(s) absent from the layout: {', '.join(sorted(missing))}"
        )
    rows = []
    for entry in layout.entries:
        score = scores.get(entry.name)
        if score is not None:
            rows.append(TopoRow(channel=entry.name, x=entry.x, y=entry.y, r=score.r, p=score.p))
    return rows


def write_topo_csv(path, rows: list[TopoRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["channel", "x", "y", "r", "p"])
        for row in rows:
            writer.writerow(
                [row.channel, repr(row.x), repr(row.y), repr(row.r), repr(row.p)]
            )

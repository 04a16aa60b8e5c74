"""Binary logistic regression: regularized maximum likelihood and
probability prediction.

Training minimizes mean negative log-likelihood plus (lambda/2)*||w||^2
(intercept unpenalized) with damped Newton steps and a backtracking line
search, run to the optimum: until the Newton decrement is negligible
against the loss, or a step no longer lowers the loss at all. Full-batch
and free of randomness, so identical inputs yield bitwise-identical models,
on any BLAS thread count: each fit works on one column-major design matrix
A = [Xs, 1], and reduces over its rows only through `A @ v` and the syrk
`B.T @ B`, whose bits do not depend on how many threads OpenBLAS runs,
and through `einsum`, which does not call BLAS.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields
from functools import partial
from typing import Sequence

import numpy as np

from .corpus_io import check_field, json_object, json_record
from .features import N_FEATURES, ScalingParams, apply_scaling


class LearnerError(ValueError):
    pass


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class Hyper:
    """Training settings, checked on construction: the L2 penalty `lam`
    is finite and > 0, the tolerance `tol` finite and > 0, and `max_iter`
    an integer >= 1. Errors name the model field and the flag.

    Newton stops when its decrement, the loss drop a full Newton step
    predicts, is at most `tol * (1 + loss)`."""

    lam: float = 1e-8
    tol: float = 1e-15
    max_iter: int = 1000

    def __post_init__(self) -> None:
        check = partial(check_field, self, "hyper", error=LearnerError)
        # with no penalty, separable rows have no optimum to converge to; the
        # float range bound refuses inf, and NaN fails every comparison
        for name, flag in (("lam", "--lambda"), ("tol", "--tol")):
            check(name, (int, float), lambda v: 0 < v <= sys.float_info.max,
                  "a finite number > 0", flag=flag)
        check("max_iter", int, lambda v: v >= 1, "an integer >= 1")


@dataclass(frozen=True)
class Model:
    """Weights aligned to `selected_features`, plus the scaling that maps
    raw feature vectors into the space the weights were trained in."""

    weights: np.ndarray
    intercept: float
    selected_features: tuple[int, ...]
    scaling: ScalingParams | None
    hyper: Hyper
    converged: bool
    n_iter: int


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below: exp never
    # overflows. min(z, -z) is -|z| that keeps the sign of a NaN z.
    e = np.exp(np.minimum(z, -z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def _loss(z, y, w, lam) -> float:
    """Objective at the margins z = A @ [w, b]."""
    nll = float(np.mean(np.logaddexp(0.0, z) - y * z))
    return nll + 0.5 * lam * float(w @ w)


# a damping of 1e-10 * 100**19 = 1e28 dwarfs any finite Hessian of this
# problem; a solve that still gives no descent step never will
_DAMPING_TRIES = 21


def _solve(H, g, damping: float) -> np.ndarray | None:
    try:
        return np.linalg.solve(H + damping * np.eye(len(g)), -g)
    except np.linalg.LinAlgError:
        return None


@dataclass(frozen=True)
class Design:
    """Training rows already in the layout a fit works on: the columns of
    the selected features, in selected order, then a column of ones, in
    column-major order (`design_matrix`). `width` is the width of the
    feature vectors the columns came from. `train` fits a Design where it
    lies, with no copy."""

    A: np.ndarray
    width: int


def checked_selection(selected: Sequence[int], width: int,
                      field: str | None = None) -> tuple[int, ...]:
    """The feature ids as a tuple: at least one, each in 1..width, none
    twice. An error names the model field `field` the ids were read from,
    when given."""
    selected = tuple(int(s) for s in selected)

    def refuse(text: str, field_text: str):
        raise LearnerError(text if field is None else f"model field {field!r} {field_text}")

    if not selected:
        refuse("no features selected", "is empty")
    for i, ft in enumerate(selected):
        if not 1 <= ft <= width:
            refuse(f"selected feature FT{ft} outside vector width {width}",
                   f"selects FT{ft}, outside 1..{width}")
        if ft in selected[:i]:
            refuse(f"feature FT{ft} is selected twice", f"selects FT{ft} twice")
    return selected


def design_matrix(vectors: np.ndarray, selected: Sequence[int]) -> np.ndarray:
    """[X[:, cols], 1] for the feature ids `selected`, column-major."""
    X = np.asarray(vectors, dtype=np.float64)
    A = np.empty((X.shape[0], len(selected) + 1), order="F")
    A[:, :-1] = X[:, [ft - 1 for ft in selected]]
    A[:, -1] = 1.0
    return A


def train(
    vectors: np.ndarray | Design,
    labels: Sequence[int] | np.ndarray,
    selected: Sequence[int],
    hyper: Hyper = Hyper(),
    scaling: ScalingParams | None = None,
    start: tuple[np.ndarray, float] | None = None,
) -> Model:
    """Fit the model on pre-scaled feature vectors.

    `vectors` holds full feature rows, or is a `Design` of them;
    `selected` names the feature ids (1-based) the model actually uses.
    Requires both classes present and finite values in every selected
    column. Newton starts from `start`, a (weights, intercept) pair, or
    from zero; a fit that converges reaches the same optimum from any
    start.
    """
    design = isinstance(vectors, Design)
    X = vectors.A if design else np.asarray(vectors, dtype=np.float64)
    if X.ndim != 2:
        raise LearnerError("vectors must be a 2-d array")
    y = np.asarray(labels, dtype=np.float64)
    if y.shape[0] != X.shape[0]:
        raise LearnerError("labels length does not match vectors")
    selected = checked_selection(selected, vectors.width if design else X.shape[1])
    if design and X.shape[1] != len(selected) + 1:
        raise LearnerError(
            f"a design of {len(selected)} features needs {len(selected) + 1} columns, "
            f"got {X.shape[1]}"
        )
    if len(np.unique(y)) < 2:
        raise LearnerError("degenerate labels: need at least one example of each class")

    # the one copy of the selected columns; a Design is fitted where it lies
    A = X if design else design_matrix(X, selected)
    finite = np.isfinite(A)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise LearnerError(f"non-finite feature value at instance row {row}, FT{selected[col]}")

    k = len(selected)
    if start is None:
        theta = np.zeros(k + 1)
    else:
        w, b = np.asarray(start[0], dtype=np.float64), float(start[1])
        if w.shape != (k,) or not (np.all(np.isfinite(w)) and math.isfinite(b)):
            raise LearnerError(f"start must be {k} finite weights and a finite intercept")
        theta = np.append(w, b)
    theta, converged, n_iter = _newton(A, y, theta, hyper)
    return Model(
        weights=theta[:k],
        intercept=float(theta[k]),
        selected_features=selected,
        scaling=scaling,
        hyper=hyper,
        converged=converged,
        n_iter=n_iter,
    )


def _newton(A: np.ndarray, y: np.ndarray, theta: np.ndarray, hyper: Hyper):
    """Damped Newton with backtracking on the design A = [Xs, 1] from
    theta = [w, b]: the optimum's theta, whether the stopping rule was
    met, and the number of iterations."""
    lam, tol, max_iter = hyper.lam, hyper.tol, hyper.max_iter
    n, k = A.shape[0], A.shape[1] - 1
    penalty = np.full(k + 1, lam)
    penalty[k] = 0.0  # the intercept is not penalized
    converged = False
    n_iter = 0
    # the margins of the current iterate come from the accepted line-search
    # step; one sigmoid of them serves the gradient and the Hessian
    z = A @ theta
    loss = _loss(z, y, theta[:k], lam)

    for n_iter in range(max_iter + 1):
        p = _sigmoid(z)
        g = np.einsum("ij,i->j", A, (p - y) / n) + penalty * theta
        d = np.maximum(p * (1.0 - p), 1e-12) / n
        B = A * np.sqrt(d)[:, None]
        H = B.T @ B  # numpy's syrk path: one triangle, mirrored
        H[np.diag_indices_from(H)] += penalty
        step = _solve(H, g, 0.0)
        # the Newton decrement is the loss drop a full step predicts; it is
        # 0 at the optimum, so a start there takes no step
        if step is not None and 0.0 <= -float(g @ step) / 2.0 <= tol * (1.0 + loss):
            converged = True
            break
        if n_iter == max_iter:
            break

        damping = 0.0
        for _ in range(_DAMPING_TRIES - 1):
            if step is not None and float(g @ step) < 0:
                break
            damping = 1e-10 if damping == 0.0 else damping * 100.0
            step = _solve(H, g, damping)
        if step is None or float(g @ step) >= 0:
            raise LearnerError(
                f"no descent direction at Newton iteration {n_iter}, "
                f"even with damping {damping:g}"
            )

        slope = float(g @ step)
        t = 1.0
        improved = False
        while t > 1e-12:
            theta_new = theta + t * step
            z_new = A @ theta_new
            loss_new = _loss(z_new, y, theta_new[:k], lam)
            if loss_new <= loss + 1e-4 * t * slope:
                improved = True
                break
            t *= 0.5
        if not improved:
            break  # step size underflow: no further numeric progress
        if loss_new >= loss:
            # the predicted drop is below the loss's rounding: the float
            # floor of the optimum
            converged = True
            break
        theta, z, loss = theta_new, z_new, loss_new
    return theta, converged, n_iter


def _prepare(model: Model, vectors: np.ndarray) -> np.ndarray:
    X = np.asarray(vectors, dtype=np.float64)
    single = X.ndim == 1
    X = np.atleast_2d(X)
    needed = max(model.selected_features)
    if X.shape[1] < needed:
        raise LearnerError(
            f"vector has {X.shape[1]} coordinates, model needs FT{needed}"
        )
    if model.scaling is not None:
        if X.shape[1] != N_FEATURES:
            raise LearnerError(
                f"scaled models score full {N_FEATURES}-feature vectors, got {X.shape[1]}"
            )
        X = apply_scaling(X, model.scaling)
    Xs = X[:, [ft - 1 for ft in model.selected_features]]
    return Xs[0] if single else Xs


def decision_values(model: Model, vectors: np.ndarray | Design) -> np.ndarray:
    """Margins of raw feature vectors, or of a `Design` of rows already in
    the model's scaling: for the design a fit ran on, bitwise the margins
    its last iterate had."""
    if isinstance(vectors, Design):
        if vectors.A.shape[1] != len(model.selected_features) + 1:
            raise LearnerError(
                f"a design of {vectors.A.shape[1]} columns cannot score a model "
                f"of {len(model.selected_features)} features"
            )
        return vectors.A @ np.append(model.weights, model.intercept)
    Xs = np.atleast_2d(_prepare(model, vectors))
    return Xs @ model.weights + model.intercept


def predict_proba(model: Model, vector: np.ndarray) -> float:
    """Retweet probability for one raw feature vector."""
    Xs = _prepare(model, vector)
    if Xs.ndim != 1:
        raise LearnerError("predict_proba scores a single vector; use predict_proba_matrix")
    z = float(Xs @ model.weights + model.intercept)
    return float(_sigmoid(np.array([z]))[0])


def predict_proba_matrix(model: Model, vectors: np.ndarray | Design) -> np.ndarray:
    return _sigmoid(decision_values(model, vectors))


def check_threshold(threshold: float) -> None:
    """A decision threshold lies strictly inside (0, 1); nan does not."""
    if not 0.0 < threshold < 1.0:
        raise LearnerError(f"threshold must lie in (0, 1), got threshold={threshold!r}")


def classify(model: Model, vector: np.ndarray, threshold: float = 0.5) -> bool:
    """True when the retweet probability reaches the threshold."""
    check_threshold(threshold)
    return predict_proba(model, vector) >= threshold


# ---------------------------------------------------------------------------
# serialization: one self-describing JSON record


def model_to_json(model: Model) -> str:
    record = {
        "format": "refilter-model-v1",
        "selected_features": list(model.selected_features),
        "weights": [float(v) for v in model.weights],
        "intercept": float(model.intercept),
        "scaling": None
        if model.scaling is None
        else {
            "mins": [float(v) for v in model.scaling.mins],
            "maxs": [float(v) for v in model.scaling.maxs],
        },
        "hyper": {"lam": model.hyper.lam, "tol": model.hyper.tol, "max_iter": model.hyper.max_iter},
        "converged": model.converged,
        "n_iter": model.n_iter,
    }
    return json.dumps(record, separators=(",", ":"))


def _finite_array(values, field: str) -> np.ndarray:
    """A JSON number, or a list of them, as float64; every value finite."""
    if not (_is_number(values) or type(values) is list and all(map(_is_number, values))):
        raise LearnerError(f"model field {field!r} must hold numbers")
    try:
        arr = np.array(values, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        arr = np.array(math.inf)
    if not np.all(np.isfinite(arr)):
        raise LearnerError(f"model field {field!r} holds a non-finite value")
    return arr


def _finite_float(value, field: str) -> float:
    arr = _finite_array(value, field)
    if arr.shape != ():
        raise LearnerError(f"model field {field!r} must be one number")
    return float(arr)


def _count(value, field: str) -> int:
    if type(value) is not int or value < 0:
        raise LearnerError(f"model field {field!r} must be an integer >= 0")
    return value


# the fields of the model record, and of its `scaling` and `hyper` objects
MODEL_FIELDS = {
    "": ("format", "selected_features", "weights", "intercept", "scaling", "hyper",
         "converged", "n_iter"),
    "scaling": ("mins", "maxs"),
    "hyper": tuple(f.name for f in fields(Hyper)),
}


def model_from_json(text: str) -> Model:
    """Parse a `model_to_json` record; a missing or malformed field raises
    LearnerError naming it."""
    try:
        record = json.loads(text, object_pairs_hook=json_object)
    except ValueError as exc:  # not JSON, or a key given twice
        raise LearnerError(f"invalid model record: {exc}") from exc
    if not isinstance(record, dict) or record.get("format") != "refilter-model-v1":
        raise LearnerError("unrecognized model format: field 'format' must be 'refilter-model-v1'")
    json_record(record, MODEL_FIELDS[""], nullable=("scaling",), error=LearnerError)
    selected = record["selected_features"]
    if type(selected) is not list or not all(type(ft) is int for ft in selected):
        raise LearnerError("model field 'selected_features' must list JSON integers")
    selected = checked_selection(selected, N_FEATURES, "selected_features")
    weights = _finite_array(record["weights"], "weights")
    if weights.shape != (len(selected),):
        raise LearnerError(
            f"model field 'weights' holds {weights.size} values for {len(selected)} "
            "selected features"
        )
    scaling = record["scaling"]
    if scaling is not None:
        json_record(scaling, MODEL_FIELDS["scaling"], "scaling", error=LearnerError)
        mins = _finite_array(scaling["mins"], "scaling.mins")
        maxs = _finite_array(scaling["maxs"], "scaling.maxs")
        for name, values in (("scaling.mins", mins), ("scaling.maxs", maxs)):
            if values.shape != (N_FEATURES,):
                raise LearnerError(
                    f"model field {name!r} holds {values.size} values, not {N_FEATURES}"
                )
        scaling = ScalingParams(mins=mins, maxs=maxs)
    intercept = _finite_float(record["intercept"], "intercept")
    hyper = json_record(record["hyper"], MODEL_FIELDS["hyper"], "hyper", error=LearnerError)
    converged = record["converged"]
    if type(converged) is not bool:
        raise LearnerError("model field 'converged' must be true or false")
    return Model(
        weights=weights,
        intercept=intercept,
        selected_features=selected,
        scaling=scaling,
        hyper=Hyper(**hyper),
        converged=converged,
        n_iter=_count(record["n_iter"], "n_iter"),
    )

"""Binary logistic regression: regularized maximum likelihood and
probability prediction.

Training minimizes mean negative log-likelihood plus (lambda/2)*||w||^2
(intercept unpenalized) with damped Newton steps and a backtracking line
search, run to the optimum: until the Newton decrement is negligible
against the loss, or a step no longer lowers the loss at all. Full-batch
and free of randomness, so identical inputs yield bitwise-identical models.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .features import N_FEATURES, ScalingParams, apply_scaling


class LearnerError(ValueError):
    pass


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    try:
        return _is_number(value) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


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
        # with no penalty, separable rows have no optimum to converge to
        if not (_is_finite(self.lam) and self.lam > 0):
            raise LearnerError(
                f"field 'hyper.lam' (--lambda) must be a finite number > 0, got {self.lam!r}"
            )
        if not (_is_finite(self.tol) and self.tol > 0):
            raise LearnerError(
                f"field 'hyper.tol' (--tol) must be a finite number > 0, got {self.tol!r}"
            )
        if type(self.max_iter) is not int or self.max_iter < 1:
            raise LearnerError(
                f"field 'hyper.max_iter' (--max-iter) must be an integer >= 1, "
                f"got {self.max_iter!r}"
            )


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
    """Objective at the margins z = Xs @ w + b."""
    nll = float(np.mean(np.logaddexp(0.0, z) - y * z))
    return nll + 0.5 * lam * float(w @ w)


# a damping of 1e-10 * 100**19 = 1e28 dwarfs any finite Hessian of this
# problem; a solve that still gives no descent step never will
_DAMPING_TRIES = 21


def _gradient(Xs, y, p, w, lam) -> np.ndarray:
    """Gradient from the probabilities p = sigmoid(Xs @ w + b)."""
    resid = (p - y) / len(y)
    return np.concatenate([Xs.T @ resid + lam * w, [float(np.sum(resid))]])


def _solve(H, g, damping: float) -> np.ndarray | None:
    try:
        return np.linalg.solve(H + damping * np.eye(len(g)), -g)
    except np.linalg.LinAlgError:
        return None


def train(
    vectors: np.ndarray,
    labels: Sequence[int] | np.ndarray,
    selected: Sequence[int],
    hyper: Hyper = Hyper(),
    scaling: ScalingParams | None = None,
    start: tuple[np.ndarray, float] | None = None,
) -> Model:
    """Fit the model on pre-scaled feature vectors.

    `vectors` holds full feature rows; `selected` names the feature ids
    (1-based) the model actually uses. Requires both classes present and
    finite values in every selected column. Newton starts from `start`,
    a (weights, intercept) pair, or from zero; a fit that converges
    reaches the same optimum from any start.
    """
    X = np.asarray(vectors, dtype=np.float64)
    if X.ndim != 2:
        raise LearnerError("vectors must be a 2-d array")
    y = np.asarray(labels, dtype=np.float64)
    if y.shape[0] != X.shape[0]:
        raise LearnerError("labels length does not match vectors")
    selected = tuple(int(s) for s in selected)
    if not selected:
        raise LearnerError("no features selected")
    for ft in selected:
        if not 1 <= ft <= X.shape[1]:
            raise LearnerError(f"selected feature FT{ft} outside vector width {X.shape[1]}")
    if len(np.unique(y)) < 2:
        raise LearnerError("degenerate labels: need at least one example of each class")

    cols = [ft - 1 for ft in selected]
    Xs = X[:, cols]
    bad = ~np.isfinite(Xs)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise LearnerError(f"non-finite feature value at instance row {row}, FT{selected[col]}")

    lam, tol, max_iter = hyper.lam, hyper.tol, hyper.max_iter
    k = len(cols)
    if start is None:
        w, b = np.zeros(k), 0.0
    else:
        w, b = np.array(start[0], dtype=np.float64), float(start[1])
        if w.shape != (k,) or not (np.all(np.isfinite(w)) and math.isfinite(b)):
            raise LearnerError(f"start must be {k} finite weights and a finite intercept")
    converged = False
    n_iter = 0
    # the margins of the current iterate come from the accepted line-search
    # step; one sigmoid of them serves the gradient and the Hessian
    z = Xs @ w + b
    loss = _loss(z, y, w, lam)

    for n_iter in range(max_iter + 1):
        p = _sigmoid(z)
        g = _gradient(Xs, y, p, w, lam)
        d = np.maximum(p * (1.0 - p), 1e-12) / len(y)
        H = np.empty((k + 1, k + 1))
        Xd = Xs * d[:, None]
        H[:k, :k] = Xs.T @ Xd + lam * np.eye(k)
        H[:k, k] = H[k, :k] = Xd.sum(axis=0)
        H[k, k] = float(d.sum())
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
            w_new = w + t * step[:k]
            b_new = b + t * float(step[k])
            z_new = Xs @ w_new + b_new
            loss_new = _loss(z_new, y, w_new, lam)
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
        w, b, z, loss = w_new, b_new, z_new, loss_new

    return Model(
        weights=w,
        intercept=b,
        selected_features=selected,
        scaling=scaling,
        hyper=hyper,
        converged=converged,
        n_iter=n_iter,
    )


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


def decision_values(model: Model, vectors: np.ndarray) -> np.ndarray:
    Xs = np.atleast_2d(_prepare(model, vectors))
    return Xs @ model.weights + model.intercept


def predict_proba(model: Model, vector: np.ndarray) -> float:
    """Retweet probability for one raw feature vector."""
    Xs = _prepare(model, vector)
    if Xs.ndim != 1:
        raise LearnerError("predict_proba scores a single vector; use predict_proba_matrix")
    z = float(Xs @ model.weights + model.intercept)
    return float(_sigmoid(np.array([z]))[0])


def predict_proba_matrix(model: Model, vectors: np.ndarray) -> np.ndarray:
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


def _field(record: dict, name: str, where: str = ""):
    if not isinstance(record, dict) or name not in record:
        raise LearnerError(f"model record lacks field {where + name!r}")
    return record[name]


def model_from_json(text: str) -> Model:
    """Parse a `model_to_json` record; a missing or malformed field raises
    LearnerError naming it."""
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LearnerError(f"invalid model record: {exc.msg}") from exc
    if not isinstance(record, dict) or record.get("format") != "refilter-model-v1":
        raise LearnerError("unrecognized model format: field 'format' must be 'refilter-model-v1'")
    selected = _field(record, "selected_features")
    if type(selected) is not list or not all(type(f) is int and f >= 1 for f in selected):
        raise LearnerError("model field 'selected_features' must list feature ids >= 1")
    if not selected:
        raise LearnerError("model field 'selected_features' is empty")
    selected = tuple(selected)
    weights = _finite_array(_field(record, "weights"), "weights")
    if weights.shape != (len(selected),):
        raise LearnerError(
            f"model field 'weights' holds {weights.size} values for {len(selected)} "
            "selected features"
        )
    scaling = _field(record, "scaling")
    if scaling is not None:
        mins = _finite_array(_field(scaling, "mins", "scaling."), "scaling.mins")
        maxs = _finite_array(_field(scaling, "maxs", "scaling."), "scaling.maxs")
        for name, values in (("scaling.mins", mins), ("scaling.maxs", maxs)):
            if values.shape != (N_FEATURES,):
                raise LearnerError(
                    f"model field {name!r} holds {values.size} values, not {N_FEATURES}"
                )
        scaling = ScalingParams(mins=mins, maxs=maxs)
    intercept = _finite_float(_field(record, "intercept"), "intercept")
    hyper = _field(record, "hyper")
    converged = _field(record, "converged")
    if type(converged) is not bool:
        raise LearnerError("model field 'converged' must be true or false")
    return Model(
        weights=weights,
        intercept=intercept,
        selected_features=selected,
        scaling=scaling,
        hyper=Hyper(**{name: _field(hyper, name, "hyper.") for name in ("lam", "tol", "max_iter")}),
        converged=converged,
        n_iter=_count(_field(record, "n_iter"), "n_iter"),
    )

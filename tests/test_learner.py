import inspect
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit

from refilter.features import N_FEATURES, fit_scaling, apply_scaling
from refilter import learner
from refilter.learner import (
    Hyper,
    LearnerError,
    Model,
    classify,
    decision_values,
    model_from_json,
    model_to_json,
    predict_proba,
    predict_proba_matrix,
    train,
)


def reference_loss(theta, X, y, lam):
    """Objective evaluated independently (used by the restart oracle)."""
    w, b = theta[:-1], theta[-1]
    z = X @ w + b
    nll = np.mean(np.logaddexp(0.0, z) - y * z)
    return nll + 0.5 * lam * float(w @ w)


def restart_oracle(X, y, lam, restarts=20, seed=0):
    """Best loss found by an independent optimizer from random starts."""
    rng = np.random.default_rng(seed)
    best = math.inf
    for _ in range(restarts):
        theta0 = rng.normal(0.0, 2.0, size=X.shape[1] + 1)
        res = minimize(reference_loss, theta0, args=(X, y, lam), method="L-BFGS-B",
                       options={"maxiter": 2000, "ftol": 1e-14, "gtol": 1e-10})
        best = min(best, float(res.fun))
    return best


def grad_max_norm(model, X, y):
    w, b = model.weights, model.intercept
    z = X @ w + b
    p = 1.0 / (1.0 + np.exp(-z))
    resid = (p - y) / len(y)
    grad_w = X.T @ resid + model.hyper.lam * w
    grad_b = float(np.sum(resid))
    return max(float(np.max(np.abs(grad_w))), abs(grad_b))


def meets_stopping_rule(model, X, y):
    """The trainer's stopping rule, checked independently at the model: the
    Newton decrement is at most tol * (1 + loss), or a full Newton step no
    longer lowers the loss (its float floor)."""
    lam, tol = model.hyper.lam, model.hyper.tol
    theta = np.concatenate([model.weights, [model.intercept]])
    A = np.hstack([X, np.ones((len(y), 1))])
    p = expit(A @ theta)
    g = A.T @ ((p - y) / len(y))
    g[:-1] += lam * model.weights
    H = A.T @ (A * (np.maximum(p * (1 - p), 1e-12) / len(y))[:, None])
    H[:-1, :-1] += lam * np.eye(len(model.weights))
    step = np.linalg.solve(H, -g)
    loss = reference_loss(theta, X, y, lam)
    return -g @ step / 2 <= tol * (1 + loss) or reference_loss(theta + step, X, y, lam) >= loss


def test_uninformative_features_give_half_probability():
    X = np.zeros((10, 2))
    y = np.array([0, 1] * 5)
    model = train(X, y, selected=(1, 2))
    assert np.allclose(model.weights, 0.0)
    assert abs(model.intercept) < 1e-8
    assert predict_proba(model, np.zeros(2)) == pytest.approx(0.5)
    assert model.converged


def test_perfectly_separable_1d():
    X = np.linspace(-1, 1, 40).reshape(-1, 1)
    y = (X[:, 0] > 0).astype(float)
    model = train(X, y, selected=(1,), hyper=Hyper(lam=1e-8))
    assert model.converged
    assert np.isfinite(model.weights).all()
    assert meets_stopping_rule(model, X, y)
    assert grad_max_norm(model, X, y) < 1e-6
    preds = predict_proba_matrix(model, X) >= 0.5
    assert np.array_equal(preds, y.astype(bool))


def test_matches_restart_oracle_on_random_problems():
    rng = np.random.default_rng(5150)
    for trial in range(10):
        n = int(rng.integers(20, 200))
        d = int(rng.integers(1, 7))
        X = rng.normal(0, 1, size=(n, d))
        w_true = rng.normal(0, 2, size=d)
        y = (rng.random(n) < 1 / (1 + np.exp(-(X @ w_true)))).astype(float)
        if y.min() == y.max():
            continue
        lam = 10.0 ** rng.uniform(-8, -2)
        model = train(X, y, selected=tuple(range(1, d + 1)), hyper=Hyper(lam=lam))
        mine = reference_loss(np.concatenate([model.weights, [model.intercept]]), X, y, lam)
        best = restart_oracle(X, y, lam, seed=trial)
        assert mine <= best + 1e-6
        assert grad_max_norm(model, X, y) < 1e-6


def test_predict_examples():
    model = Model(weights=np.zeros(1), intercept=0.0, selected_features=(1,),
                  scaling=None, hyper=Hyper(), converged=True, n_iter=0)
    assert predict_proba(model, np.zeros(1)) == pytest.approx(0.5)
    model_b = Model(weights=np.zeros(1), intercept=math.log(3), selected_features=(1,),
                    scaling=None, hyper=Hyper(), converged=True, n_iter=0)
    assert predict_proba(model_b, np.zeros(1)) == pytest.approx(0.75)


def test_negating_parameters_flips_probability():
    rng = np.random.default_rng(3)
    w = rng.normal(0, 1, size=3)
    b = 0.7
    model = Model(weights=w, intercept=b, selected_features=(1, 2, 3),
                  scaling=None, hyper=Hyper(), converged=True, n_iter=0)
    flipped = Model(weights=-w, intercept=-b, selected_features=(1, 2, 3),
                    scaling=None, hyper=Hyper(), converged=True, n_iter=0)
    for _ in range(20):
        x = rng.normal(0, 1, size=3)
        assert predict_proba(flipped, x) == pytest.approx(1 - predict_proba(model, x))


def test_classify_boundary_is_inclusive():
    model = Model(weights=np.zeros(1), intercept=0.0, selected_features=(1,),
                  scaling=None, hyper=Hyper(), converged=True, n_iter=0)
    assert classify(model, np.zeros(1), threshold=0.5) is True
    low = Model(weights=np.zeros(1), intercept=-0.05, selected_features=(1,),
                scaling=None, hyper=Hyper(), converged=True, n_iter=0)
    assert classify(low, np.zeros(1), threshold=0.5) is False


def test_classify_threshold_validation():
    model = Model(weights=np.zeros(1), intercept=0.0, selected_features=(1,),
                  scaling=None, hyper=Hyper(), converged=True, n_iter=0)
    with pytest.raises(LearnerError):
        classify(model, np.zeros(1), threshold=0.0)
    with pytest.raises(LearnerError):
        classify(model, np.zeros(1), threshold=1.0)


def test_recall_monotone_in_threshold():
    rng = np.random.default_rng(12)
    X = rng.normal(0, 1, size=(300, 3))
    y = (X[:, 0] + 0.5 * rng.normal(size=300) > 0).astype(float)
    model = train(X, y, selected=(1, 2, 3))
    probs = predict_proba_matrix(model, X)
    last_recall = 1.1
    for threshold in np.linspace(0.05, 0.95, 19):
        preds = probs >= threshold
        tp = np.sum(preds & (y == 1))
        recall = tp / y.sum()
        assert recall <= last_recall + 1e-12
        last_recall = recall


def test_training_is_deterministic():
    rng = np.random.default_rng(77)
    X = rng.normal(0, 1, size=(150, 4))
    y = (rng.random(150) < 0.5).astype(float)
    m1 = train(X, y, selected=(1, 2, 3, 4))
    m2 = train(X, y, selected=(1, 2, 3, 4))
    assert np.array_equal(m1.weights, m2.weights)
    assert m1.intercept == m2.intercept
    assert m1.n_iter == m2.n_iter


def test_start_at_the_optimum_takes_no_step():
    X, y = _small_problem()
    model = train(X, y, selected=(1, 2, 3), hyper=Hyper(lam=1e-8))
    assert model.converged and model.n_iter > 0
    again = train(X, y, selected=(1, 2, 3), hyper=Hyper(lam=1e-8),
                  start=(model.weights, model.intercept))
    assert again.converged and again.n_iter == 0
    assert np.array_equal(again.weights, model.weights)
    assert again.intercept == model.intercept


def test_any_start_reaches_the_same_optimum():
    X, y = _small_problem()
    cold = train(X, y, selected=(1, 2, 3), hyper=Hyper(lam=1e-8))
    best = reference_loss(np.concatenate([cold.weights, [cold.intercept]]), X, y, 1e-8)
    rng = np.random.default_rng(4)
    for _ in range(10):
        start = (rng.normal(0, 5, size=3), float(rng.normal(0, 5)))
        warm = train(X, y, selected=(1, 2, 3), hyper=Hyper(lam=1e-8), start=start)
        assert warm.converged and meets_stopping_rule(warm, X, y)
        theta = np.concatenate([warm.weights, [warm.intercept]])
        assert abs(reference_loss(theta, X, y, 1e-8) - best) <= 1e-14
        assert np.max(np.abs(predict_proba_matrix(warm, X) - predict_proba_matrix(cold, X))) < 1e-6


@pytest.mark.parametrize("start", [
    (np.zeros(2), 0.0), (np.zeros(3), math.nan), (np.array([0.0, math.inf, 0.0]), 0.0),
])
def test_invalid_start_is_rejected(start):
    X, y = _small_problem()
    with pytest.raises(LearnerError, match="start"):
        train(X, y, selected=(1, 2, 3), start=start)


def test_max_iter_stops_short_unconverged():
    X, y = _small_problem()
    model = train(X, y, selected=(1, 2, 3), hyper=Hyper(lam=1e-8, max_iter=1))
    assert model.n_iter == 1 and not model.converged


def _lines_run(func, call):
    """The line numbers of `func` that run during `call()`, and what the
    call returns."""
    ran = set()

    def in_func(frame, event, arg):
        if event == "line":
            ran.add(frame.f_lineno)
        return in_func

    def trace(frame, event, arg):
        return in_func if frame.f_code is func.__code__ else None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return ran, result


def test_newton_stops_at_the_float_floor():
    """With a tol that no Newton decrement meets, the loop ends where a
    full step no longer lowers the loss: the float floor of the optimum."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(69, 2))
    y = (rng.random(69) < expit(X @ np.array([1.0, -2.0]))).astype(float)
    ran, model = _lines_run(learner._newton,
                            lambda: train(X, y, selected=(1, 2), hyper=Hyper(tol=1e-300)))
    lines, first = inspect.getsourcelines(learner._newton)
    test = next(i for i, line in enumerate(lines) if "if loss_new >= loss:" in line)
    floor = next(i for i in range(test + 1, len(lines)) if "converged = True" in lines[i])
    assert first + floor in ran
    assert model.converged and 0 < model.n_iter < Hyper().max_iter
    assert meets_stopping_rule(model, X, y)


def test_newton_stops_when_the_step_size_underflows(monkeypatch):
    """When every trial point of the line search is worse, the step halves
    below its floor and the fit stops at its start, not converged."""
    X, y = _small_problem()
    loss, calls = learner._loss, []

    def loss_then_inf(*args):
        calls.append(None)
        return loss(*args) if len(calls) == 1 else math.inf

    monkeypatch.setattr(learner, "_loss", loss_then_inf)
    start = (np.array([0.3, -0.2]), 0.1)
    ran, model = _lines_run(learner._newton,
                            lambda: train(X, y, selected=(1, 2), start=start))
    lines, first = inspect.getsourcelines(learner._newton)
    test = next(i for i, line in enumerate(lines) if "if not improved:" in line)
    assert first + test + 1 in ran and "break" in lines[test + 1]
    assert not model.converged and model.n_iter == 0
    assert model.weights.tolist() == start[0].tolist() and model.intercept == start[1]


def test_regularization_shrinks_weights():
    rng = np.random.default_rng(8)
    X = rng.normal(0, 1, size=(200, 3))
    y = (X @ np.array([1.5, -2.0, 0.5]) + rng.normal(0, 0.5, 200) > 0).astype(float)
    norms = []
    for lam in (1e-6, 1e-2, 1.0):
        model = train(X, y, selected=(1, 2, 3), hyper=Hyper(lam=lam))
        norms.append(float(np.linalg.norm(model.weights)))
    assert norms[0] > norms[1] > norms[2]


def test_single_class_labels_rejected():
    X = np.zeros((5, 1))
    with pytest.raises(LearnerError, match="degenerate labels"):
        train(X, np.ones(5), selected=(1,))


def test_non_finite_feature_names_ft_id():
    X = np.zeros((4, 3))
    X[2, 1] = np.nan
    y = np.array([0, 1, 0, 1])
    with pytest.raises(LearnerError, match="FT2"):
        train(X, y, selected=(1, 2, 3))


def _small_problem():
    rng = np.random.default_rng(12)
    X = rng.normal(0, 1, size=(40, 3))
    return X, (X[:, 0] + 0.5 * rng.normal(size=40) > 0).astype(float)


@pytest.mark.parametrize("field,settings", [
    ("hyper.lam", dict(lam=math.nan)),  # looped in the damping forever
    ("hyper.lam", dict(lam=-1.0)),  # diverged: huge weights, or no return
    ("hyper.tol", dict(tol=0.0)),  # ran to max_iter
    ("hyper.max_iter", dict(max_iter=-5)),  # gave an all-zero model
])
def test_invalid_hyper_is_rejected(field, settings):
    X, y = _small_problem()
    with pytest.raises(LearnerError, match=f"'{field}'"):
        train(X, y, selected=(1, 2, 3), hyper=Hyper(**settings))


def test_zero_lambda_is_rejected():
    """Without the penalty, separable rows have no optimum: Newton ran all
    `max_iter` steps and reported `converged: false`."""
    with pytest.raises(LearnerError, match=r"^field 'hyper\.lam' \(--lambda\) must be a finite "
                                           r"number > 0, got 0\.0$"):
        Hyper(lam=0.0)
    record = _model_record()
    record["hyper"]["lam"] = 0.0
    with pytest.raises(LearnerError, match=r"'hyper\.lam' \(--lambda\)"):
        model_from_json(json.dumps(record))


def test_damping_gives_up_without_a_descent_direction(monkeypatch):
    calls = []

    def no_solution(*_):
        calls.append(1)
        assert len(calls) < 1000, "the damping loop does not stop"
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(np.linalg, "solve", no_solution)
    X, y = _small_problem()
    with pytest.raises(LearnerError, match="no descent direction"):
        train(X, y, selected=(1, 2, 3))


def test_missing_coordinate_rejected():
    model = Model(weights=np.ones(2), intercept=0.0, selected_features=(1, 40),
                  scaling=None, hyper=Hyper(), converged=True, n_iter=0)
    with pytest.raises(LearnerError, match="FT40"):
        predict_proba(model, np.zeros(5))


def test_selected_feature_out_of_range():
    with pytest.raises(LearnerError, match="FT7"):
        train(np.zeros((4, 3)), np.array([0, 1, 0, 1]), selected=(7,))


def test_repeated_selected_feature_rejected():
    with pytest.raises(LearnerError, match="FT2 is selected twice"):
        train(np.eye(4, 3), np.array([0, 1, 0, 1]), selected=(2, 1, 2))


def test_design_fits_and_scores_as_the_rows_it_holds():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(60, 5))
    y = (X[:, 3] + rng.normal(size=60) > 0).astype(float)
    selected = (4, 2)
    # a view of a taller buffer, as the learning curve passes it
    A = learner.design_matrix(np.vstack([X, X]), selected)[:60]
    model = train(learner.Design(A, 5), y, selected)
    direct = train(X, y, selected)
    assert np.array_equal(model.weights, direct.weights)
    assert model.intercept == direct.intercept and model.n_iter == direct.n_iter
    assert np.allclose(decision_values(model, learner.Design(A, 5)),
                       decision_values(model, X), rtol=0, atol=1e-12)
    with pytest.raises(LearnerError, match="FT6 outside vector width 5"):
        train(learner.Design(A, 5), y, (4, 6))
    with pytest.raises(LearnerError, match="needs 2 columns, got 3"):
        train(learner.Design(A, 5), y, (4,))
    with pytest.raises(LearnerError, match="cannot score a model of 1 features"):
        decision_values(train(X, y, (4,)), learner.Design(A, 5))


def test_model_with_repeated_selected_feature_rejected():
    record = _model_record()
    record["selected_features"] = [6, 6]
    record["weights"] = [0.5, 0.5]
    with pytest.raises(LearnerError, match="'selected_features' selects FT6 twice"):
        model_from_json(json.dumps(record))


def test_serialization_round_trip_exact():
    rng = np.random.default_rng(2)
    X = rng.normal(0, 1, size=(80, 50))
    y = (rng.random(80) < 0.5).astype(float)
    scaling = fit_scaling(X)
    model = train(apply_scaling(X, scaling), y, selected=(3, 17, 44), scaling=scaling)
    text = model_to_json(model)
    back = model_from_json(text)
    assert np.array_equal(back.weights, model.weights)
    assert back.intercept == model.intercept
    assert back.selected_features == model.selected_features
    assert np.array_equal(back.scaling.mins, model.scaling.mins)
    assert np.array_equal(back.scaling.maxs, model.scaling.maxs)
    assert back.hyper == model.hyper
    assert model_to_json(back) == text


@pytest.mark.parametrize("field", ["weights", "intercept", "scaling.mins", "scaling.maxs"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_model_from_json_rejects_non_finite(field, value):
    X = np.zeros((4, N_FEATURES))
    X[:2, 0] = 1.0
    scaling = fit_scaling(X)
    model = train(apply_scaling(X, scaling), [1, 1, 0, 0], selected=(1,), scaling=scaling)
    record = json.loads(model_to_json(model))
    if field == "intercept":
        record["intercept"] = value
    else:
        *outer, name = field.split(".")
        target = record[outer[0]] if outer else record
        target[name][-1] = value
    with pytest.raises(LearnerError, match=f"'{field}'"):
        model_from_json(json.dumps(record))


def test_scaled_model_scores_raw_vectors():
    rng = np.random.default_rng(4)
    X = np.zeros((60, N_FEATURES))
    X[:, 0] = rng.uniform(0, 280, size=60)  # FT1 raw char length
    y = (X[:, 0] > 140).astype(float)
    scaling = fit_scaling(X)
    model = train(apply_scaling(X, scaling), y, selected=(1,), scaling=scaling)
    probs = predict_proba_matrix(model, X)
    assert np.array_equal(probs >= 0.5, y.astype(bool))
    # scoring with scaling demands full-width vectors
    with pytest.raises(LearnerError):
        predict_proba(model, np.zeros(10))


# in a mixed order: scaled FT1 and FT5, unscaled FT2 and FT10, FT6 scaled
# with min == max, and FT9 scaled with a NaN span
MIXED_FEATURES = (10, 1, 6, 2, 9, 5)


@pytest.mark.parametrize("rows", [slice(None), 7])
def test_scoring_raw_vectors_gives_the_bits_of_apply_scaling(rows):
    """Scoring selects the model's columns and scales them in place: the
    margins are bitwise those of `apply_scaling` on every column, then the
    selection, for a matrix and for one vector, and the input is left as
    it was."""
    rng = np.random.default_rng(12)
    X = rng.normal(5.0, 3.0, size=(40, N_FEATURES))
    scaling = fit_scaling(X[:20])  # later rows clamp
    scaling.mins[5] = scaling.maxs[5] = 3.0
    scaling.mins[8] = np.nan
    model = Model(rng.normal(size=len(MIXED_FEATURES)), 0.25, MIXED_FEATURES, scaling,
                  Hyper(), True, 1)
    X = X[rows]
    before = X.copy()
    cols = [ft - 1 for ft in MIXED_FEATURES]
    expected = np.atleast_2d(apply_scaling(X, scaling)[..., cols]) @ model.weights + model.intercept
    got = decision_values(model, X)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    assert np.array_equal(predict_proba_matrix(model, X), learner._sigmoid(expected))
    if X.ndim == 1:
        z = float(apply_scaling(X, scaling)[cols] @ model.weights + model.intercept)
        assert predict_proba(model, X) == float(learner._sigmoid(np.array([z]))[0])
    assert np.array_equal(X, before)


def test_scoring_copies_only_the_models_columns():
    """Scoring a 12,000 x 50 matrix with a 10-feature model holds the
    selected columns, not a scaled copy of every column."""
    rng = np.random.default_rng(3)
    X = rng.normal(size=(12_000, N_FEATURES))
    selected = (1, 5, 6, 9, 14, 10, 11, 2, 3, 15)
    model = Model(np.ones(len(selected)), 0.0, selected, fit_scaling(X), Hyper(), True, 1)
    decision_values(model, X)
    tracemalloc.start()
    try:
        decision_values(model, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < X.nbytes, peak / X.nbytes


def test_decision_values_match_probabilities():
    rng = np.random.default_rng(6)
    X = rng.normal(0, 1, size=(30, 2))
    y = (X[:, 0] > 0).astype(float)
    model = train(X, y, selected=(1, 2))
    z = decision_values(model, X)
    p = predict_proba_matrix(model, X)
    assert np.allclose(1 / (1 + np.exp(-z)), p)


def masked_sigmoid(z):
    """The sigmoid in two masked halves, each of which keeps exp finite."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_equals_the_masked_form_bit_for_bit():
    rng = np.random.default_rng(8)
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123],
                    dtype=np.uint64).view(np.float64)
    edges = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324])
    far = np.linspace(700.0, 800.0, 101)
    for z in (rng.normal(0, 10, 6000), rng.normal(0, 1000, 6000), edges, nans,
              np.concatenate([far, -far])):
        with np.errstate(over="ignore", invalid="ignore"):
            expected = masked_sigmoid(z)
        assert np.array_equal(learner._sigmoid(z).view(np.int64), expected.view(np.int64))


def _model_record() -> dict:
    X = np.zeros((4, N_FEATURES))
    X[:2, 0] = 1.0
    scaling = fit_scaling(X)
    model = train(apply_scaling(X, scaling), [1, 1, 0, 0], selected=(1,), scaling=scaling)
    return json.loads(model_to_json(model))


@pytest.mark.parametrize("field", [
    "selected_features", "weights", "intercept", "scaling", "scaling.mins", "scaling.maxs",
    "hyper", "hyper.lam", "converged", "n_iter",
])
def test_model_from_json_names_missing_field(field):
    record = _model_record()
    *outer, name = field.split(".")
    del (record[outer[0]] if outer else record)[name]
    with pytest.raises(LearnerError, match=f"'{field}'"):
        model_from_json(json.dumps(record))


@pytest.mark.parametrize("field,length", [
    ("weights", 2), ("weights", 0), ("scaling.mins", N_FEATURES - 1),
    ("scaling.maxs", N_FEATURES + 1),
])
def test_model_from_json_rejects_wrong_length(field, length):
    record = _model_record()
    *outer, name = field.split(".")
    target = record[outer[0]] if outer else record
    target[name] = [0.5] * length
    with pytest.raises(LearnerError, match=f"'{field}'"):
        model_from_json(json.dumps(record))


@pytest.mark.parametrize("field,value", [
    ("selected_features", [0]), ("selected_features", [1.0]), ("selected_features", "1"),
    ("weights", [10**400]), ("weights", [True]), ("intercept", "0.5"),
    ("hyper.lam", "1e-8"), ("hyper.tol", math.nan), ("hyper.max_iter", 1000.0),
    ("n_iter", -1), ("converged", 1), ("selected_features", [51]),
])
def test_model_from_json_rejects_mistyped_field(field, value):
    record = _model_record()
    *outer, name = field.split(".")
    (record[outer[0]] if outer else record)[name] = value
    with pytest.raises(LearnerError, match=f"'{field}'"):
        model_from_json(json.dumps(record))

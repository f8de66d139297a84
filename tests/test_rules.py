"""Every size and step bound below model applies a rule of kooba.errors, and
a value the rule refuses raises a KoobaError that names it: a fraction, a
bool, NaN and an infinity as well as a value below the bound. No such value
ends in a numpy error, returns NaN or builds an operator of another order."""

import re

import numpy as np
import pytest

from kooba import (ConfigError, InputError, KoobaError, LorenzParams, build_basis,
                   build_continuous, build_kernel, build_system, companion_discrete,
                   discretize_bilinear, gauss_legendre_rule, legendre_eval,
                   legendre_values, lookback_argument, normalize, split_controls)
from kooba.errors import INT_MAX
from kooba.koopman import rollout

NAN, INF = float("nan"), float("inf")
A = np.array([1.0, 2.0, 3.0])          # a defined order-2 companion system


def _three_columns():
    rng = np.random.default_rng(0)
    return normalize(["x", "y", "u"], rng.normal(size=(20, 3)))


# (id, call, error class, name in the text, least value)
INTEGER_SITES = [
    ("build_continuous-legs", lambda v: build_continuous("legs", v), ConfigError, "order", 0),
    ("build_continuous-legt", lambda v: build_continuous("legt", v, omega=1.0),
     ConfigError, "order", 0),
    ("build_basis", lambda v: build_basis("legs", v, dt=0.25), ConfigError, "order", 0),
    ("build_kernel", lambda v: build_kernel(build_basis("legs", 3, dt=0.25), v),
     ConfigError, "block length", 1),
    ("LorenzParams", lambda v: LorenzParams(steps=v), ConfigError, "steps", 1),
    ("split_controls", lambda v: split_controls(_three_columns(), v),
     ConfigError, "control count k", 1),
    ("legendre_values", lambda v: legendre_values(v, 0.5), InputError, "order", 0),
    ("legendre_eval", lambda v: legendre_eval(v, 0.5), InputError, "order", 0),
    ("gauss_legendre_rule", gauss_legendre_rule, InputError, "npts", 1),
]

# (id, call, name in the text); every one raises ConfigError
POSITIVE_SITES = [
    ("build_continuous-omega", lambda v: build_continuous("legt", 3, omega=v), "omega"),
    ("build_basis-omega", lambda v: build_basis("legt", 3, dt=0.25, omega=v), "omega"),
    ("discretize_bilinear", lambda v: discretize_bilinear(*build_continuous("legs", 3), v), "dt"),
    ("build_basis-dt", lambda v: build_basis("legs", 3, dt=v), "dt"),
    ("companion_discrete", lambda v: companion_discrete(A, v), "dt"),
    ("build_system", lambda v: build_system(A, [1.0], v), "dt"),
    ("rollout", lambda v: rollout(A, np.ones((4, 1)), v), "dt"),
]


def _raises_exactly(error, text):
    assert issubclass(error, KoobaError)
    return pytest.raises(error, match="^" + re.escape(text) + "$")


@pytest.mark.parametrize("value", [2.5, True, NAN, INF, "edge"])
@pytest.mark.parametrize("call, error, name, least",
                         [site[1:] for site in INTEGER_SITES],
                         ids=[site[0] for site in INTEGER_SITES])
def test_sizes_follow_the_integer_rule(call, error, name, least, value):
    value = least - 1 if value == "edge" else value
    with _raises_exactly(error, f"{name} must be an integer from {least} to {INT_MAX}, "
                                f"got {value!r}"):
        call(value)


@pytest.mark.parametrize("value", [True, NAN, INF, 0, -1.0])
@pytest.mark.parametrize("call, name", [site[1:] for site in POSITIVE_SITES],
                         ids=[site[0] for site in POSITIVE_SITES])
def test_steps_and_windows_follow_the_positive_rule(call, name, value):
    with _raises_exactly(ConfigError, f"{name} must be a positive finite number, got {value!r}"):
        call(value)


def test_legt_needs_its_window():
    with _raises_exactly(ConfigError, "omega must be a positive finite number, got None"):
        build_continuous("legt", 3)


@pytest.mark.parametrize("s", [NAN, [0.5, NAN]])
def test_legendre_refuses_a_nan_argument(s):
    with _raises_exactly(InputError, "basis argument outside [-1, 1]: max |s| = nan"):
        legendre_values(2, s)


@pytest.mark.parametrize("method, omega", [("legs", None), ("legt", 2.0)])
def test_lookback_refuses_a_nan_age(method, omega):
    basis = build_basis(method, 3, dt=0.25, omega=omega)
    with _raises_exactly(InputError, "age must be non-negative, got nan"):
        lookback_argument(basis, NAN)


@pytest.mark.parametrize("b, shown", [([NAN], "[nan]"), ([1.0, INF], "[ 1. inf]"), ([], "[]")],
                         ids=["nan", "inf", "empty"])
def test_build_system_refuses_weights_that_are_not_finite(b, shown):
    with _raises_exactly(ConfigError,
                         f"control weights must be a non-empty finite vector, got {shown}"):
        build_system(A, b, 0.25)

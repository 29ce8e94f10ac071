"""A seeded sweep of configs of every model kind, through the CLI's model
builder, with magnitudes from 1e-12 to 1e5.

Each config ends in one of three outcomes: a verdict, a typed error
recorded on the orbit (a ``MagflowError`` subclass), or a ``ConfigError``
naming a model key. None raises anything else or warns a RuntimeWarning,
and each stays under a wall bound. The tori run one orbit to a horizon of
at most 20.
"""

import math
import random
import time
import warnings

import pytest

from magflow import MagflowError, classify, cli
from magflow.errors import ConfigError

VERDICTS = ("NumericallyAnosov", "NotAnosov", "Inconclusive")

SWEEP_SEED = 0
SWEEP_SIZE = 50
# seconds per config: the slowest ones spend a Jacobi launch's budget of
# curvature points (about 2 s on a 2-core host); a hang runs far past this
WALL_BOUND = 10.0


def _sweep_configs() -> list:
    """(model spec, horizon) for SWEEP_SIZE configs cycling through the
    three kinds, every number a random sign times 10**U(-12, 5). A constant
    model gets its Gauss-Bonnet area where the signs of K and chi agree,
    else a random one, which the builder refuses."""
    rng = random.Random(SWEEP_SEED)

    def mag():
        return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, 5.0)

    configs = []
    for i in range(SWEEP_SIZE):
        kind = ("constant", "torus", "profile")[i % 3]
        if kind == "constant":
            K, chi = mag(), rng.choice((-4, -2, 2))
            area = 2.0 * math.pi * chi / K if K * chi > 0 else abs(mag())
            model = {"kind": kind, "K": K, "b": mag(), "chi": chi, "area": area}
        elif kind == "torus":
            model = {"kind": kind, "phi": {"cos": {"1,0": mag()}},
                     "b": {"const": mag(), "sin": {"0,1": mag()}}}
        else:
            model = {"kind": kind, "kappa": {"const": mag(), "omega": mag(),
                                             "cos": {"1": mag()}, "sin": {"2": mag()}}}
        configs.append((model, rng.choice((5.0, 10.0, 20.0))))
    return configs


@pytest.mark.parametrize("model, horizon", [
    pytest.param(model, horizon, id="%d-%s" % (i, model["kind"]))
    for i, (model, horizon) in enumerate(_sweep_configs())])
def test_every_config_ends_in_one_of_three_outcomes(model, horizon):
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            built = cli.build_model(model)
        except ConfigError as exc:
            assert exc.key.startswith("model")
            return
        sampling = cli.build_sampling({"ensemble": {"count": 1, "horizon": horizon}})
        rep = classify(built, sampling)
    assert time.perf_counter() - start < WALL_BOUND
    assert rep.verdict in VERDICTS
    typed = {cls.__name__ for cls in _subclasses(MagflowError)}
    for o in rep.orbits:
        assert o.error is None or o.error.split(":")[0] in typed, o.error


def _subclasses(cls) -> list:
    return [cls] + [s for c in cls.__subclasses__() for s in _subclasses(c)]

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from dfobounds import QuadraticPolynomial


def random_quadratic(rng, n, scale=1.0):
    """A random quadratic polynomial with symmetric Hessian."""
    B = rng.standard_normal((n, n)) * scale
    return QuadraticPolynomial(
        n,
        float(rng.standard_normal()) * scale,
        rng.standard_normal(n) * scale,
        0.5 * (B + B.T),
    )


def interpolation_residual(model, sample_set, values):
    """max_j |model(y_j) - values_j| over the set's points."""
    return float(np.abs(model.eval_batch(sample_set.points) - values).max())


def fd_gradient(f, x, h=1e-6):
    """Central-difference gradient of a scalar callable."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return out


ROOT = Path(__file__).resolve().parent.parent


def campaign_script():
    """``scripts/run_bound_campaign.py``, loaded as a module."""
    spec = importlib.util.spec_from_file_location(
        "run_bound_campaign", ROOT / "scripts" / "run_bound_campaign.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def default_sweep(seeds):
    """The trials of ``scripts/run_bound_campaign.py --seeds <seeds>``."""
    return campaign_script().build_trials(seeds, 0.0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def simplex_set():
    from dfobounds import SampleSet

    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return SampleSet(points, 1.0)


@pytest.fixture
def cross_set():
    """Four points whose product values isolate the x1*x2 monomial."""
    from dfobounds import SampleSet

    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    return SampleSet(points, np.sqrt(2.0))

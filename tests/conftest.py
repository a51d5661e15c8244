import numpy as np
import pytest

from lpw.grid import GridSpec
from lpw.lpaley import make_lp_pair
from lpw.verify import make_corpus


@pytest.fixture(scope="session")
def spec1k():
    return GridSpec(1, 8.0, 1024)


@pytest.fixture(scope="session")
def pair1k(spec1k):
    # N=1024, R=8: lattice cap log2(1/h)=6, so [-3, 6] resolves
    return make_lp_pair(spec1k, -3, 6)


@pytest.fixture(scope="session")
def corpus1k(spec1k, pair1k):
    return make_corpus(spec1k, pair1k, size=12, seed=7)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def fft_calls(monkeypatch):
    """Live counts of the numpy n-D forward and inverse transforms."""
    calls = {"fftn": 0, "ifftn": 0}
    for name in calls:
        orig = getattr(np.fft, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls

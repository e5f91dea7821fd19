"""The library's numpy/math special functions, checked against
scipy.special, and the library run in a process where scipy cannot be
imported.
"""

import math
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from laplace_match import distributions, pipeline, transforms
from laplace_match.errors import LaplaceMatchError

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _gammaln(values):
    return np.array([distributions._gammaln(v) for v in values])


class TestAgainstScipy:
    @pytest.mark.parametrize("zero", [1.0, 2.0])
    def test_gammaln_at_its_zeros(self, zero):
        # near its zeros lgamma is tiny, so the check is absolute
        x = np.concatenate([
            zero + np.linspace(-1e-3, 1e-3, 401),
            [np.nextafter(zero, 0.0), zero, np.nextafter(zero, 3.0)],
        ])
        np.testing.assert_allclose(_gammaln(x), special.gammaln(x), rtol=0.0, atol=4e-15)

    def test_gammaln_up_to_shape_1e8(self):
        x = np.exp(np.linspace(np.log(1e-300), np.log(1e8), 3001))
        want = special.gammaln(x)
        far = np.abs(want) > 1.0  # away from the zeros at 1 and 2
        np.testing.assert_allclose(_gammaln(x)[far], want[far], rtol=2e-15)
        np.testing.assert_allclose(_gammaln(x)[~far], want[~far], rtol=0.0, atol=4e-15)

    def test_gammaln_pole_and_overflow_are_inf(self):
        for x in (0.0, 1e306, np.inf):
            assert distributions._gammaln(x) == special.gammaln(x) == np.inf
        assert math.isnan(distributions._gammaln(np.nan))

    @pytest.mark.parametrize("p", [2, 3])
    def test_multigammaln_just_above_its_domain(self, p):
        edge = 0.5 * (p - 1)
        for a in [np.nextafter(edge, 2.0 * p)] + [edge + e for e in (1e-15, 1e-8, 1e-3, 0.5, 1e6)]:
            want = special.multigammaln(a, p)
            assert distributions._multigammaln(a, p) == pytest.approx(want, rel=1e-15, abs=1e-14)

    def test_betaln_at_large_shapes(self):
        # a difference of log-gammas: a few ulps of lgamma(a + b) absolute,
        # reached at (1e8, 1), where lgamma(a + b) is 1.7e9 and the result -18.4
        for a, b in ((1e4, 1e4), (1e8, 1.0), (1.0, 1e8), (0.5, 0.5)):
            bound = 4.0 * np.spacing(max(special.gammaln([a, b, a + b]).max(), 1.0))
            assert abs(distributions._betaln(a, b) - special.betaln(a, b)) <= bound
        assert abs(distributions._betaln(1e8, 1.0) - special.betaln(1e8, 1.0)) < 2e-8

    def test_log_expit_at_the_tails_and_zero(self):
        x = np.array([-800.0, 800.0, 0.0, -40.0, 40.0])
        got = transforms._log_expit(x)
        assert got.tolist() == special.log_expit(x).tolist()
        x = np.random.default_rng(0).uniform(-50.0, 50.0, 10_000)
        np.testing.assert_allclose(transforms._log_expit(x), special.log_expit(x), rtol=1e-15)

    def test_logsumexp_rows_spread_over_1e3(self):
        x = np.random.default_rng(1).uniform(-500.0, 500.0, (400, 5))
        x[0] = [-500.0, 500.0, 0.0, 499.0, -499.0]
        np.testing.assert_allclose(
            transforms._logsumexp(x), special.logsumexp(x, axis=-1, keepdims=True), rtol=1e-15
        )


# parameter values from bad to extreme: lgamma's pole and overflow among them
_REALS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 5e-324, 1e-300, 1e306, 1.7e308, -1.0]),
)


def _returns_or_raises_library_error(call):
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            call()
        except LaplaceMatchError:
            pass


class TestNoRawErrorsFromLgamma:
    @settings(max_examples=200, deadline=None)
    @given(
        family=st.sampled_from(distributions.FAMILIES),
        a=_REALS,
        b=_REALS,
        x=_REALS,
        tag_index=st.integers(0, 2),
    )
    def test_densities(self, family, a, b, x, tag_index):
        def params():
            if family in ("exponential", "chi_squared"):
                return getattr(distributions, family)(a)
            if family == "dirichlet":
                return distributions.dirichlet([a, b, 1.0])
            if family in ("wishart", "inverse_wishart"):
                return getattr(distributions, family)(a, np.eye(2) * b)
            return getattr(distributions, family)(a, b)

        def points():
            if family == "dirichlet":
                return np.array([x, 0.5, 0.5 - x])
            if family in ("wishart", "inverse_wishart"):
                return np.eye(2) * x
            return np.array([x, 0.5])

        tags = transforms.FAMILY_BASES[family]
        tag = tags[tag_index % len(tags)]

        def density():
            td = transforms.push_forward(params(), tag)
            td.log_density(np.full(td.dim, x) if td.dim > 1 else np.array([x]))

        _returns_or_raises_library_error(lambda: distributions.log_pdf(params(), points()))
        _returns_or_raises_library_error(density)

    @settings(max_examples=200, deadline=None)
    @given(targets=st.lists(_REALS, min_size=1, max_size=4), rate=_REALS)
    def test_count_metrics(self, targets, rate):
        n = len(targets)
        _returns_or_raises_library_error(
            lambda: pipeline.count_metrics(np.full(n, rate), np.ones(n), np.array(targets))
        )

    def test_huge_counts_score_like_scipy(self):
        targets = np.array([0.0, 3.0, 3.0, 1e300])
        rates = np.array([0.5, 2.0, 4.0, 1e300])
        mnll = pipeline.count_metrics(rates, np.ones(4), targets)["mnll"]
        want = -np.mean(targets * np.log(rates) - rates - special.gammaln(targets + 1.0))
        assert mnll == pytest.approx(want, rel=1e-15)


_WITHOUT_SCIPY = textwrap.dedent(
    """
    import sys

    class NoScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"{name} is not installed")
            return None

    sys.meta_path.insert(0, NoScipy())

    import numpy as np
    import laplace_match
    import laplace_match.cli
    from laplace_match import bridges, cli, diagnostics, distributions, pipeline, transforms

    X = np.linspace(0.0, 4.0, 12)
    runs = {
        "beta": (X, (X > 2.0).astype(float)),
        "gamma": (X, np.arange(12.0) % 4),
        "dirichlet": (X[:4], np.array([[3.0, 1, 0], [2, 2, 1], [0, 1, 4], [1, 3, 1]])),
        "inverse_wishart": (X[:3], np.stack([np.eye(2) * (1.0 + i) for i in range(3)])),
    }
    for family, (x, y) in runs.items():
        pipeline.lmgp_v1(pipeline.Dataset(x, y), pipeline.LMGPConfig(family, draws=20))
    for family in distributions.FAMILIES:
        params = diagnostics.default_grid(family)[2]
        basis = transforms.FAMILY_BASES[family][1]
        bridges.lm_inverse(bridges.lm_forward(params, basis), family, basis)
    assert not any(r[5].startswith("FAIL") for r in diagnostics.oracle_rows(["dirichlet"]))
    diagnostics.mc_kl(distributions.gamma(3.0, 2.0), "log", n=500)
    diagnostics.mc_kl(distributions.wishart(4.0, np.eye(2)), "matrix_log", n=500)
    pipeline.count_metrics(np.array([1.0, 2.0]), np.ones(2), np.array([0.0, 3.0]))
    assert cli.main(["bridge", "gamma", "log", "forward", "--alpha", "4", "--lambda", "2"]) == 0
    print("scipy" in sys.modules)
    """
)


def test_the_library_runs_without_scipy():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", _WITHOUT_SCIPY],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "False"

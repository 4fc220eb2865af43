import ast
import inspect
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special, stats

from d2dcache import (
    ORDERING_MODES,
    AnalyticInputs,
    ContentCatalogue,
    ExponentialFading,
    ExponentialLifespan,
    ExponentialSize,
    FixedLifespan,
    PopularityLaw,
    RadioParams,
    SimulationConfig,
    UniformSize,
    WeibullSize,
    Window,
    build_preset,
    coverage_radius_scale,
    estimate_sweep,
    estimate_total_success,
    link_bits,
    popularity_weighted_marginals,
    sample_disc,
    sample_fading,
    sample_lifespan,
    sample_sizes,
    total_success,
    zipf_popularity,
)
from d2dcache import analytics, simulator
from d2dcache.analytics import size_rule
from d2dcache.experiments import _radio
from d2dcache.simulator import (
    _BISECTIONS,
    TRUNCATION_BOUND,
    _campbell_terms,
    _draw_requests,
    _qualifier_bounds,
    _radii,
    _request_sizes,
    _sample_requests,
    _sweep_radii,
)

from conftest import single_object


def small_inputs(density=2.5e-3, tau_mean=100.0, F=20, K=3, size_bits=1e7, lifespan=ExponentialLifespan):
    pop = zipf_popularity(F, 0.78)
    return AnalyticInputs(
        density=density,
        radio=RadioParams(power=0.5, noise=1e-11 * 5e6, bandwidth=5e6, pathloss_exponent=4.0),
        fading=ExponentialFading(),
        lifespan=lifespan(tau_mean),
        policy=popularity_weighted_marginals(pop, K),
        catalogue=ContentCatalogue(popularity=pop, sizes=np.full(F, size_bits)),
    )


def _half_width(inputs):
    """The window each test was written against: ten coverage radius
    scales, rounded up to the next 100 m, and at least 500 m."""
    return max(500.0, 100.0 * math.ceil(10.0 * coverage_radius_scale(inputs) / 100.0))


def make_config(inputs, iterations=400, seed=11, **kw):
    hw = kw.pop("half_width", None) or _half_width(inputs)
    return SimulationConfig(
        inputs=inputs, window=Window(hw), iterations=iterations, master_seed=seed, **kw
    )


# ------------------------------------------------------------ independence


def test_simulator_reads_no_closed_form():
    # the Monte Carlo checks the closed form, so it may take only the input
    # and result types from analytics, and nothing from scipy; nor may it
    # name any function of analytics, or the closed form's fading_moment,
    # however it reaches them
    imported, named = {}, set()
    for node in ast.walk(ast.parse(inspect.getsource(simulator))):
        if isinstance(node, ast.ImportFrom):
            imported.setdefault(node.module or "", set()).update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update({alias.name: set() for alias in node.names})
        # every identifier and string it spells: names, attributes, imports, definitions, arguments
        spelled = (getattr(node, field, None) for field in ("id", "attr", "name", "asname", "arg", "value"))
        named.update(word for word in spelled if isinstance(word, str))
    assert imported["analytics"] == {"AnalyticInputs", "MetricEstimate"}
    assert not [module for module in imported if module.split(".")[0] == "scipy"]
    analytics_body = ast.parse(inspect.getsource(analytics)).body
    closed_form = {node.name for node in analytics_body if isinstance(node, ast.FunctionDef)}
    assert "total_success" in closed_form
    assert named & (closed_form | {"fading_moment"}) == set()


def test_package_starts_no_worker_processes():
    # every estimate runs serially in the caller's process
    for path in sorted(Path(simulator.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not [m for m in modules if m.split(".")[0] in ("concurrent", "multiprocessing")], path.name


# ------------------------------------------------------------- degenerate


def test_empty_field_never_serves():
    inputs = small_inputs(density=0.0)
    est = estimate_total_success(make_config(inputs, iterations=50, half_width=500.0))
    assert est.value == 0.0
    assert est.sample_count == 50


def test_all_empty_caches_never_serve():
    inputs = small_inputs()
    empty = replace(inputs, policy=replace(inputs.policy, b=np.zeros(20)))
    est = estimate_total_success(make_config(empty, iterations=50))
    assert est.value == 0.0


def test_requests_for_an_uncached_object_never_serve():
    # every request is for object 0, which no transmitter caches; the
    # cached objects 1-5 are never requested
    inputs = small_inputs()
    b = inputs.policy.b.copy()
    b[0] = 0.0
    a = np.zeros(20)
    a[0] = 1.0
    unrequested = replace(
        inputs,
        policy=replace(inputs.policy, b=b),
        catalogue=replace(inputs.catalogue, popularity=PopularityLaw(20, a)),
    )
    est = estimate_total_success(make_config(unrequested, iterations=300))
    assert est.value == 0.0 and est.standard_error == 0.0 and est.sample_count == 300


def test_single_close_transmitter_delivers():
    radio = RadioParams(power=0.5, noise=1e-11, bandwidth=5e6, pathloss_exponent=4.0)
    # at r=1 m the link runs at W*log2(1+5e10) bits/s; one second moves
    # ~1.8e8 bits, far more than the 1e7-bit file
    assert link_bits(radio, 1.0, 1.0, 1.0) >= 1e7
    # the same link cannot move a 1e12-bit file in that second
    assert link_bits(radio, 1.0, 1.0, 1.0) < 1e12


def test_config_validation():
    inputs = small_inputs()
    with pytest.raises(ValueError):
        make_config(inputs, iterations=0)
    with pytest.raises(ValueError):
        SimulationConfig(inputs=inputs, window=Window(500.0), iterations=10, parallelism=0)
    # a non-integer or boolean count or seed names its field instead of
    # failing later in the estimate; numpy integers are accepted
    for field, value in [
        ("iterations", 2.5),
        ("iterations", True),
        ("iterations", False),
        ("iterations", np.float64(10.0)),
        ("parallelism", 1.5),
        ("parallelism", False),
        ("parallelism", "2"),
        ("parallelism", True),
        ("master_seed", True),
        ("master_seed", 2.5),
        ("master_seed", (1, False)),
    ]:
        with pytest.raises(ValueError, match=field):
            SimulationConfig(inputs=inputs, window=Window(500.0), **{"iterations": 10, field: value})
    config = SimulationConfig(inputs=inputs, window=Window(500.0), iterations=np.int64(10), parallelism=np.int32(1))
    assert estimate_total_success(config).sample_count == 10
    with pytest.raises(ValueError):
        SimulationConfig(inputs=inputs, window=Window(500.0), iterations=10, reorder="shuffled")


# ---------------------------------------------------------- reproducibility


def _outcomes(config):
    """Outcome of each request, all three phases."""
    drawn = _draw_requests(config)
    [(r_max, _)] = _sweep_radii([config], [drawn])
    return _sample_requests(config.inputs, *drawn, r_max)


def test_same_seed_reproduces_every_outcome():
    config = make_config(small_inputs(), iterations=768, seed=42)
    first = _outcomes(config)
    assert first.size == 768
    assert np.array_equal(first, _outcomes(config))
    assert not np.array_equal(first, _outcomes(replace(config, master_seed=43)))


def _mixed_sweep():
    """Configs of 600 and 700 requests with one radio and fading law:
    fixed catalogues under both lifespan laws at differing densities and
    mean lifespans, size laws in two orders, and two configs whose window
    caps their discs (object 0's 57 m radius at 40 m, and the uniform
    law's 24-63 m radii at 20 m)."""
    uniform = UniformSize(0.05e9, 2e9)
    exponential = small_inputs(tau_mean=100.0)
    fixed = small_inputs(density=1e-3, tau_mean=100.0, lifespan=FixedLifespan)
    specs = [
        (exponential, {}),
        (small_inputs(density=1e-3, tau_mean=50.0), {}),
        (fixed, {}),
        (small_inputs(density=5e-3, tau_mean=20.0, lifespan=FixedLifespan), {}),
        (exponential, {"size_law": WeibullSize(276.0, 0.1)}),
        (fixed, {"size_law": uniform, "reorder": "decreasing"}),
        (single_object(small_inputs(tau_mean=100.0, lifespan=FixedLifespan), 0), {"half_width": 40.0}),
        (exponential, {"size_law": uniform, "half_width": 20.0}),
    ]
    return [
        make_config(inputs, iterations=600 + 100 * (i % 2), seed=(17, i), **kw)
        for i, (inputs, kw) in enumerate(specs)
    ]


def test_sweep_equals_each_estimate_bit_for_bit(monkeypatch):
    configs = _mixed_sweep()
    searches = []
    monkeypatch.setattr(simulator, "_radii", lambda *args: searches.append(args) or _radii(*args))
    with warnings.catch_warnings(record=True) as swept_warnings:
        warnings.simplefilter("always")
        line = inspect.currentframe().f_lineno + 1
        swept = estimate_sweep(configs)
    # one search per size-law config and one per lifespan law for the rest
    assert len(searches) == 3 + 2
    alone, alone_warnings = [], []
    for config in configs:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            alone.append(estimate_total_success(config))
        assert len(caught) <= 1
        alone_warnings += caught
    assert swept == alone
    # each capped config warns once, in order, as it does alone, at the caller's line
    messages = [str(w.message) for w in swept_warnings]
    assert messages == [str(w.message) for w in alone_warnings]
    assert [m.split(" m caps")[0] for m in messages] == ["window half-width 40", "window half-width 20"]
    assert all(m.endswith("exceeds 1e-09") for m in messages)
    assert all(w.category is UserWarning and (w.filename, w.lineno) == (__file__, line) for w in swept_warnings)


@pytest.mark.parametrize(
    "draw",
    [
        lambda: sample_disc(1e-3, 100.0),
        lambda: sample_fading(ExponentialFading(1.0)),
        lambda: sample_lifespan(ExponentialLifespan(100.0)),
        lambda: sample_sizes(ExponentialSize(1e-9), 10),
    ],
    ids=["disc", "fading", "lifespan", "sizes"],
)
def test_samplers_require_a_generator(draw):
    # no draw can bypass a seeded generator
    with pytest.raises(TypeError):
        draw()


def test_tuple_master_seeds_are_accepted():
    inputs = small_inputs()
    a = estimate_total_success(make_config(inputs, iterations=40, seed=(3, 1, 0)))
    b = estimate_total_success(make_config(inputs, iterations=40, seed=(3, 1, 0)))
    assert a.value == b.value


@pytest.mark.parametrize(
    "seed", [-1, (3, -1), 1.5, "7", ()], ids=["negative", "negative-entry", "float", "str", "empty"]
)
def test_master_seed_must_be_nonnegative_integers(seed):
    # numpy would refuse it only inside the estimate, without naming the field,
    # or read an empty tuple as seed 0
    with pytest.raises(ValueError, match="master_seed"):
        make_config(small_inputs(), iterations=10, seed=seed)


# ------------------------------------------------------- against the closed form


def test_single_object_catalogues_match_closed_form():
    inputs = small_inputs(tau_mean=100.0)
    for j in (0, 2, 5):
        one = single_object(inputs, j)
        sim = estimate_total_success(make_config(one, iterations=1500, seed=5))
        ana = total_success(one)
        se = max(sim.standard_error, 1e-12)
        assert abs(sim.value - ana.value) < 3 * se, (j, sim.value, ana.value)


def test_total_matches_closed_form():
    inputs = small_inputs(tau_mean=100.0)
    sim = estimate_total_success(make_config(inputs, iterations=2000, seed=6))
    ana = total_success(inputs)
    assert abs(sim.value - ana.value) < 3 * sim.standard_error


def _validate_inputs(name, tau):
    """The validate preset's seed-0 catalogue at mean lifespan tau."""
    preset = build_preset(name, seed=0)
    popularity = zipf_popularity(preset.catalogue_size, preset.zipf_exponent)
    rng = np.random.default_rng(np.random.SeedSequence((0, 1)))
    return AnalyticInputs(
        density=preset.density,
        radio=_radio(preset),
        fading=ExponentialFading(1.0),
        lifespan=ExponentialLifespan(tau),
        policy=popularity_weighted_marginals(popularity, preset.cache_capacity),
        catalogue=ContentCatalogue(
            popularity=popularity,
            sizes=sample_sizes(ExponentialSize(1.0 / preset.size_mean_bits), preset.catalogue_size, rng),
        ),
    )


@pytest.mark.parametrize(
    "name,tau", [("validate_audio", 10.0), ("validate_audio", 100.0), ("validate_video", 100.0), ("validate_video", 1000.0)]
)
def test_validate_catalogues_match_closed_form_at_grid_ends(name, tau):
    inputs = _validate_inputs(name, tau)
    sim = estimate_total_success(make_config(inputs, iterations=200_000, seed=(61, int(tau))))
    ana = total_success(inputs).value
    z = (sim.value - ana) / sim.standard_error
    assert abs(z) <= 4.0, (name, tau, sim.value, ana, z)


def test_popular_small_files_served_more_often():
    # under increasing size order the most popular object has the smallest
    # file, so requests for it alone must beat requests for the least
    # popular cached one alone
    pop = zipf_popularity(20, 0.78)
    sizes = np.sort(np.random.default_rng(np.random.SeedSequence((96, 0))).exponential(5e8, 20))
    inputs = replace(small_inputs(tau_mean=100.0), catalogue=ContentCatalogue(popularity=pop, sizes=sizes))
    top, bottom = (
        estimate_total_success(make_config(single_object(inputs, j), iterations=1200, seed=8)) for j in (0, 5)
    )
    se = math.hypot(top.standard_error, bottom.standard_error)
    assert top.value - bottom.value > 3 * se


# --------------------------------------------------------- simulation radius


def campbell_terms(inputs, z, b):
    """_campbell_terms at the inputs' own density and mean lifespan."""
    return _campbell_terms(inputs, z, b, inputs.density, inputs.lifespan.mean)


def radii(inputs, z, b, half_width):
    """_radii at the inputs' own density and mean lifespan: each row's
    radius and the largest truncation bound of a capped one."""
    radius, capped = _radii(inputs, z, b, inputs.density, inputs.lifespan.mean, half_width)
    return radius, float(capped.max(initial=0.0))


def qualifier_means(inputs, z, b, radius):
    """(M_in, M_out) at one radius per row, exactly: each node's share times
    scipy's regularized lower and upper incomplete gamma functions. Each has
    its own function because for tiny files M_in is a tiny part of a huge
    whole."""
    log_k, _, share = campbell_terms(inputs, z, b)
    alpha = inputs.radio.pathloss_exponent
    with np.errstate(over="ignore"):
        y = np.exp(log_k + alpha * np.log(np.asarray(radius, dtype=float))[:, None])
    q = 2.0 / alpha
    return (share * special.gammainc(q, y)).sum(axis=1), (share * special.gammaincc(q, y)).sum(axis=1)


def qualifier_bounds(inputs, z, b, radius):
    return _qualifier_bounds(*campbell_terms(inputs, z, b), inputs.radio.pathloss_exponent, np.log(radius))


def exact_radii(inputs, z, b, half_width):
    """_radii's bisection with the exact truncation bound in place of its
    elementary one: same bracket, same steps, so the same grid of radii."""
    cap = np.full(len(z), half_width)
    lo, hi = np.log(cap / 1024.0), np.log(cap)
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        inside = truncation_bound(*qualifier_means(inputs, z, b, np.exp(mid))) <= TRUNCATION_BOUND
        lo, hi = np.where(inside, lo, mid), np.where(inside, mid, hi)
    return np.exp(hi)


def truncation_bound(m_in, m_out):
    return np.exp(-m_in) * -np.expm1(-m_out)


def _outside_mean_oracle(inputs, z, b, radius):
    """lambda b int_R^inf 2 pi r E_T[exp(-k_T r^alpha)] dr by adaptive quadrature."""
    radio = inputs.radio
    c = inputs.fading.rate * radio.noise / radio.power

    def qualifies(r, t):
        x = z * math.log(2.0) / (radio.bandwidth * t)
        return 0.0 if x > 700.0 else math.exp(-c * math.expm1(x) * r**radio.pathloss_exponent)

    tau = inputs.lifespan.mean
    if isinstance(inputs.lifespan, FixedLifespan):
        mean_over_t = lambda r: qualifies(r, tau)
    else:
        # E_T over s = ln(T/tau), whose density is e^(s - e^s)
        mean_over_t = lambda r: integrate.quad(
            lambda s: math.exp(s - math.exp(s)) * qualifies(r, tau * math.exp(s)),
            -45.0,
            math.log(300.0),
            epsabs=0.0,
            epsrel=1e-12,
            limit=500,
            points=[-5.0, 0.0, 1.0, 2.0, 3.0, 4.0],
        )[0]
    outer = integrate.quad(lambda r: 2.0 * math.pi * r * mean_over_t(r), radius, math.inf, epsabs=0.0, epsrel=1e-11, limit=500)
    return inputs.density * b * outer[0]


@pytest.mark.parametrize("lifespan", [FixedLifespan, ExponentialLifespan])
@pytest.mark.parametrize("z,tau,b", [(1e7, 10.0, 1.0), (1e9, 1000.0, 0.3), (3e8, 100.0, 0.6)])
def test_outside_mean_against_quadrature_oracle(lifespan, z, tau, b):
    # the quadrature oracle checks the exact M_out, and lies at or below the
    # elementary bound that the simulator's radius rests on
    inputs = small_inputs(tau_mean=tau, lifespan=lifespan)
    radius, _ = radii(inputs, np.array([z]), np.array([b]), 2000.0)
    for r in (radius[0], radius[0] / 2.0):
        oracle = _outside_mean_oracle(inputs, z, b, r)
        _, m_out = qualifier_means(inputs, np.array([z]), np.array([b]), np.array([r]))
        assert m_out[0] == pytest.approx(oracle, rel=1e-6), r
        _, m_out_bound = qualifier_bounds(inputs, np.array([z]), np.array([b]), np.array([r]))
        assert oracle <= m_out_bound[0] * (1.0 + 1e-9), r


def check_radius(inputs, z, b, half_width):
    """_radii against the exact bisection on the same bracket, row by row:
    the exact truncation bound holds at R, R is no smaller than the exact
    radius and at most 1.25 times it, and a radius 2e-4 short of R fails
    the elementary bound (so _radii caps there with a finite bound). The
    density, mean lifespan and cap given once per row, as a sweep's
    catalogue search gives them, yield the same radii bit for bit."""
    radius, worst = radii(inputs, z, b, half_width)
    assert worst == 0.0 and np.all(np.isfinite(radius))
    per_row = (np.full(z.size, v) for v in (inputs.density, inputs.lifespan.mean, half_width))
    assert np.array_equal(_radii(inputs, z, b, *per_row)[0], radius)
    exact = exact_radii(inputs, z, b, half_width)
    assert np.all(truncation_bound(*qualifier_means(inputs, z, b, radius)) <= TRUNCATION_BOUND)
    assert np.all(radius >= exact) and np.all(radius <= 1.25 * exact)
    for row in np.flatnonzero(radius * (1.0 - 2e-4) > half_width / 1024.0):
        _, shy = radii(inputs, z[row : row + 1], b[row : row + 1], radius[row] * (1.0 - 2e-4))
        assert TRUNCATION_BOUND < shy < math.inf, (z[row], b[row])
    return radius


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_radius_meets_the_exact_bound_and_is_close_to_the_exact_radius():
    inputs = small_inputs(tau_mean=100.0)
    z, b = np.array([1e7, 3e8, 1e9]), np.array([1.0, 0.5, 0.2])
    assert np.all(check_radius(inputs, z, b, 2000.0) < 2000.0)


def _extreme_rows():
    """A fixed list of radius inputs at the edges of the model: 1e-30-bit to
    1e12-bit files, lifespans too short to deliver anything (k_T = inf),
    nodes where k_T R^alpha overflows past e^709, alpha from just above 2
    to 6 and densities from 1e-5 to 1e-1, under both lifespan laws."""
    for alpha in (2.05, 3.0, 4.0, 6.0):
        for density in (1e-5, 1e-3, 1e-1):
            for law, taus in ((FixedLifespan, (1e-3, 100.0)), (ExponentialLifespan, (10.0, 1000.0))):
                for tau in taus:
                    inputs = small_inputs(density=density, tau_mean=tau, lifespan=law)
                    radio = replace(inputs.radio, pathloss_exponent=alpha)
                    yield replace(inputs, radio=radio)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_radius_contract_holds_on_extreme_inputs():
    # 1e-30 bits (a Weibull(276, 0.1) size law draws such files) makes M_in
    # a tiny part of a huge whole; 2e10 and 3.16e10 bits put lifespan nodes
    # of many rows just short of k_T = inf, so that k_T R^alpha overflows at
    # the top of their bracket
    z = np.array([1e-30, 1.0, 1e4, 1e9, 2e10, 3.16e10, 1e12])
    b = np.array([0.5, 1.0, 0.3, 0.05, 0.5, 0.5, 1.0])
    overflowed = undeliverable = 0
    for inputs in _extreme_rows():
        # quadruple from 1 mm until the exact bound holds: the exact radius is
        # then in (hw/4, hw], and the widest bracket that holds it is 256 hw
        hw = np.full(z.size, 1e-3)
        while np.any(over := truncation_bound(*qualifier_means(inputs, z, b, hw)) > TRUNCATION_BOUND):
            hw = np.where(over, 4.0 * hw, hw)
        for row in range(z.size):
            check_radius(inputs, z[row : row + 1], b[row : row + 1], 256.0 * hw[row])
        log_k, _, share = campbell_terms(inputs, z, b)
        alpha = inputs.radio.pathloss_exponent
        overflowed += np.any((share > 0) & (log_k + alpha * np.log(256.0 * hw)[:, None] > 709.8))
        undeliverable += np.any(share == 0)
    # the list reaches both edges that the bound has to survive
    assert overflowed >= 10 and undeliverable >= 10


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_radius_holds_at_lifespans_near_the_largest_float():
    # W t overflowed at the top lifespan nodes, 100 tau, which made every
    # bound NaN and every radius the cap, without the cap's warning; at such
    # lifespans every transmitter in the plane qualifies, whatever tau
    inputs = _validate_inputs("validate_audio", 1e290)
    cached = inputs.policy.b > 0
    z, b = inputs.catalogue.sizes[cached], inputs.policy.b[cached]
    radius = {tau: _radii(inputs, z, b, inputs.density, tau, 3000.0) for tau in (1e290, 1e300, 3e301)}
    assert np.all(radius[1e290][0] < 3000.0) and not np.any(radius[1e290][1])
    for tau in (1e300, 3e301):
        assert np.array_equal(radius[tau][0], radius[1e290][0]) and not np.any(radius[tau][1]), tau


def test_a_nan_radius_bound_raises_naming_the_row():
    # at alpha near 2 the share of a 1e308 s lifespan overflows to inf, and the bounds take inf - inf
    inputs = small_inputs(tau_mean=1e308, lifespan=FixedLifespan, size_bits=1e9)
    inputs = replace(inputs, radio=replace(inputs.radio, pathloss_exponent=2.01))
    config = make_config(inputs, iterations=5, half_width=3000.0)
    with pytest.raises(ArithmeticError, match=r"bound is NaN at z=1e\+09 bits, b=1, tau=1e\+308 s"):
        estimate_total_success(config)


def test_window_truncation_contributes_nothing_beyond_half_width():
    # fields drawn on discs twice the computed radius: no request that a
    # transmitter beyond the radius could serve is missed inside it
    for inputs, seed in ((small_inputs(tau_mean=100.0, size_bits=1e9), 21), (small_inputs(tau_mean=50.0), 22)):
        rng = np.random.default_rng(seed)
        b = inputs.policy.b[:6]
        z = inputs.catalogue.sizes[:6]
        radius, _ = radii(inputs, z, b, 5000.0)
        n = 20_000
        j = rng.integers(0, b.size, n)
        owner, r = sample_disc(inputs.density * b[j], 2.0 * radius[j], rng)
        h = rng.exponential(1.0, owner.size)
        t = rng.exponential(inputs.lifespan.mean, owner.size)
        ok = link_bits(inputs.radio, h, r, t) >= z[j][owner]
        inside = np.bincount(owner, weights=ok & (r <= radius[j][owner]), minlength=n) > 0
        anywhere = np.bincount(owner, weights=ok, minlength=n) > 0
        assert anywhere.mean() > 0.1
        assert not np.any(anywhere & ~inside)


def test_resampled_sizes_follow_the_law_each_iteration():
    inputs = small_inputs(tau_mean=100.0)
    law = WeibullSize(276.0, 0.1)
    config = make_config(inputs, iterations=10, seed=9, size_law=law)
    z = _request_sizes(config, np.random.default_rng(9), np.zeros(20_000, dtype=int))
    _, p_value = stats.kstest(z, lambda x: -np.expm1(-((x / law.scale) ** law.shape)))
    assert p_value > 0.01
    # without a size law every request gets its object's catalogue size
    fixed = replace(config, size_law=None)
    j = np.array([0, 3, 7])
    np.testing.assert_array_equal(_request_sizes(fixed, np.random.default_rng(9), j), inputs.catalogue.sizes[j])


@pytest.mark.parametrize("j", [0, 4, 19])
def test_decreasing_rank_sizes_follow_the_order_statistic(j):
    # rank j (0-based) of a decreasing catalogue holds the (F - j)-th
    # smallest of F draws, so its uniform is Beta(F - j, j + 1)
    inputs = small_inputs(tau_mean=100.0)
    law = WeibullSize(276.0, 0.1)
    config = make_config(inputs, iterations=10, size_law=law, reorder="decreasing")
    z = _request_sizes(config, np.random.default_rng(j), np.full(20_000, j))
    u = -np.expm1(-((z / law.scale) ** law.shape))
    F = inputs.catalogue.F
    _, p_value = stats.kstest(u, stats.beta(F - j, j + 1).cdf)
    assert p_value > 0.01


@pytest.mark.parametrize("mode", ORDERING_MODES)
def test_request_sizes_and_size_rule_give_each_rank_one_marginal(mode):
    # the simulator's draws and expected_success's rule both take rank j's
    # order statistic from content.order_statistic; under a uniform law the
    # mean of rank j's draws must match the mean of its row of the rule
    inputs = small_inputs(F=200, K=5)
    law = UniformSize(0.05e9, 2e9)
    config = make_config(inputs, iterations=10, size_law=law, reorder=mode)
    rule = size_rule(inputs.policy, law, mode)
    for j in (0, 5, 9):
        rng = np.random.default_rng(np.random.SeedSequence((97, ORDERING_MODES.index(mode), j)))
        z = _request_sizes(config, rng, np.full(20_000, j))
        want = float(rule.weights[0 if mode == "independent" else j] @ rule.sizes)
        se = z.std(ddof=1) / math.sqrt(z.size)
        assert abs(z.mean() - want) <= 4 * se, (j, z.mean(), want, se)


def _user_warnings(config):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        estimate_total_success(config)
    return [w for w in caught if issubclass(w.category, UserWarning)]


def test_narrow_window_warns():
    # object 0's computed radius is about 80 m; a 40 m window caps it
    inputs = small_inputs(tau_mean=100.0)
    narrow = make_config(single_object(inputs, 0), iterations=5, half_width=40.0)
    caught = _user_warnings(narrow)
    messages = [str(w.message) for w in caught]
    assert len(messages) == 1 and "half-width 40 m" in messages[0]
    # the warning names the line that called estimate_total_success
    assert caught[0].filename == __file__
    b, z = inputs.policy.b[0], inputs.catalogue.sizes[0]
    oracle_out = _outside_mean_oracle(inputs, z, b, 40.0)
    oracle_in = _outside_mean_oracle(inputs, z, b, 1e-9) - oracle_out
    # the warning reports the elementary bound that capped the radius, which
    # lies above the exact truncation bias of the quadrature oracle
    bound = float(messages[0].split("bound ")[1].split(" ")[0])
    elementary = float(truncation_bound(*qualifier_bounds(inputs, np.array([z]), np.array([b]), np.array([40.0])))[0])
    assert bound == pytest.approx(elementary, rel=1e-2)
    assert 1e-9 < float(truncation_bound(oracle_in, oracle_out)) <= elementary


def test_preset_window_does_not_warn():
    inputs = small_inputs(tau_mean=100.0)
    assert _user_warnings(make_config(inputs, iterations=5)) == []
    # nor any other warning, e.g. a numpy overflow on the total-success path
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        estimate_total_success(make_config(inputs, iterations=5))

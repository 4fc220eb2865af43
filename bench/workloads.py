"""The three workloads: their inputs, their operations and their checks.

Each workload is built from the benchmark seed alone and exposes a fixed
list of operations, every one a call into a name of ``d2dcache.__all__``
looked up on the package at call time (so the traced run can wrap it).
One round runs the list in order, one call after another: a closed loop
with one client. ``check`` verifies one round's results against
evaluations from ``reference``, which does not use the package.
"""

from __future__ import annotations

import math

import numpy as np

import d2dcache as d2d
import reference as ref

# Window half-widths the presets choose at seed 0 (40,000 and 12,100
# transmitters per iteration). Pinned so that every seed draws fields of
# the same size: the preset's own choice follows the seed's smallest
# cached file and ranges from 500 m to 3000 m over seeds 0-2999, which
# would make the simulator's work per iteration depend on the seed by up
# to 36 times. Beyond these windows the expected number of qualifying
# transmitters is below 1e-100 per request for the five seeds of 0-2999
# that need the widest windows.
VALIDATE_WINDOWS = {"validate_audio": 2000.0, "validate_video": 1100.0}
VALIDATE_ITERATIONS = 100
COMPARISON_ITERATIONS = 20
# Every workload simulates serially. At parallelism 2 on a 2-core machine
# the comparison sweep's wall time rose from about 8 s to 11-15 s while
# the host was busy, a spread over ten seeds of half the median; pool
# start-up is measured by the traced run's probe instead.
POOL_PROBE_WORKERS = 2
# expected_success under an exponential lifespan: one size law that
# evaluates today, at the smallest draw count the package accepts
CLOSED_FORM_LAW = "uniform"
CLOSED_FORM_TAU = 300.0
CLOSED_FORM_DRAWS = 1000
# independent draws of the benchmark's own Monte Carlo evaluations
COMPARISON_OWN_DRAWS = 50_000
CLOSED_FORM_OWN_DRAWS = 20_000


def _row_key(row):
    return (row.sweep_name, row.sweep_value, row.variant, row.analytic, row.simulated, row.stderr, row.n_iter, row.seed)


def _radio(preset):
    return d2d.RadioParams(
        power=preset.power,
        noise=preset.noise_density * preset.bandwidth,
        bandwidth=preset.bandwidth,
        pathloss_exponent=preset.alpha,
    )


def _catalogue_sizes(seed: int, F: int, mean_bits: float) -> np.ndarray:
    """Exponential sizes from the (seed, 1) stream, as the experiments module documents."""
    u = np.random.default_rng(np.random.SeedSequence((seed, 1))).random(F)
    return -mean_bits * np.log1p(-u)


def _model(preset, density=None):
    """(a, b, coefficient) of a preset, computed by the benchmark."""
    a = ref.zipf(preset.catalogue_size, preset.zipf_exponent)
    b = ref.marginals(a, preset.cache_capacity)
    c = ref.coefficient(
        preset.density if density is None else density,
        preset.power,
        preset.noise_density * preset.bandwidth,
        preset.alpha,
    )
    return a, b, c


def _validate_reference(preset, tau: float) -> float:
    a, b, c = _model(preset)
    cached = b > 0
    sizes = _catalogue_sizes(preset.seed, preset.catalogue_size, preset.size_mean_bits)[cached]
    moments = ref.moment_exponential(sizes / (preset.bandwidth * tau), preset.alpha)
    return math.fsum(a[cached] * -np.expm1(-c * b[cached] * moments))


class ValidateSweep:
    """``run_preset`` on validate_audio then validate_video, serially."""

    name = "validate_sweep"

    def __init__(self, seed: int):
        self.seed = seed
        self.presets = [
            d2d.build_preset(name, seed=seed, iterations=VALIDATE_ITERATIONS, window_half_width=hw, parallelism=1)
            for name, hw in VALIDATE_WINDOWS.items()
        ]

    def operations(self):
        return [(p.name, lambda p=p: d2d.run_preset(p)) for p in self.presets]

    def fingerprint(self, result):
        return [_row_key(r) for r in result]

    def check(self, results) -> list[str]:
        errors = []
        n_tests = sum(len(p.sweeps[0][1]) for p in self.presets)
        alpha = ref.FALSE_ALARM / n_tests
        for preset, rows in zip(self.presets, results):
            if rows is None:
                continue
            grid = preset.sweeps[0][1]
            if [r.sweep_value for r in rows] != [float(t) for t in grid]:
                errors.append(f"{preset.name}: rows do not follow the tau grid")
                continue
            for row in rows:
                label = f"{preset.name} tau={row.sweep_value:g}"
                errors += ref.check_relative(f"{label} analytic", row.analytic, _validate_reference(preset, row.sweep_value), 1e-6)
                errors += ref.check_binomial(f"{label} simulated", row.simulated, row.n_iter, row.analytic, alpha)
            errors += ref.check_nondecreasing(f"{preset.name} analytic in tau", [r.analytic for r in rows])
        return errors


class ComparisonSweep:
    """``run_preset`` on expected_comparison and ordered_comparison, serially."""

    name = "comparison_sweep"

    def __init__(self, seed: int):
        self.seed = seed
        self.presets = [
            d2d.build_preset(name, seed=seed, iterations=COMPARISON_ITERATIONS, parallelism=1)
            for name in ("expected_comparison", "ordered_comparison")
        ]

    def operations(self):
        return [(p.name, lambda p=p: d2d.run_preset(p)) for p in self.presets]

    def fingerprint(self, result):
        return [_row_key(r) for r in result]

    def pool_probe(self):
        """A 2-iteration estimate shaped like one comparison point, with a pool."""
        preset = self.presets[0]
        popularity = d2d.zipf_popularity(preset.catalogue_size, preset.zipf_exponent)
        law = d2d.UniformSize(0.05e9, 2e9)
        inputs = d2d.AnalyticInputs(
            density=preset.density,
            radio=_radio(preset),
            fading=d2d.ExponentialFading(1.0),
            lifespan=d2d.FixedLifespan(preset.fixed_lifespan),
            policy=d2d.popularity_weighted_marginals(popularity, preset.cache_capacity),
            catalogue=d2d.ContentCatalogue(
                popularity=popularity, sizes=np.full(preset.catalogue_size, d2d.mean_size(law))
            ),
        )
        return d2d.SimulationConfig(
            inputs=inputs,
            window=d2d.Window(500.0),
            iterations=2,
            master_seed=(self.seed, 9),
            parallelism=POOL_PROBE_WORKERS,
            size_law=law,
        )

    def _own_success(self, preset, density: float, tau: float, sizes: np.ndarray):
        """Per-draw success of the benchmark's own draws, fixed lifespan tau.

        sizes has one column per cached object: one shared size per draw
        for independent sizes, the descending top 2K for ordered ones.
        """
        a, b, c = _model(preset, density)
        cached = b > 0
        moments = ref.moment_fixed(sizes / (preset.bandwidth * tau), preset.alpha)
        return np.exp(-c * b[cached] * moments) @ -a[cached] + a[cached].sum()

    def check(self, results) -> list[str]:
        errors = []
        n_tests = 2 * sum(len(results[i] or ()) for i in range(len(results)))
        alpha = ref.FALSE_ALARM / max(n_tests, 1)
        n_own = COMPARISON_OWN_DRAWS
        for p_idx, (preset, rows) in enumerate(zip(self.presets, results)):
            if rows is None:
                continue
            k = 2 * preset.cache_capacity
            ordered = preset.reorder == "decreasing"
            # draws behind the program's analytic value: mc_samples shared
            # sizes, or mc_samples // F (at least 200) sorted catalogues
            n_prog = max(200, preset.mc_samples // preset.catalogue_size) if ordered else preset.mc_samples
            sweeps = dict(preset.sweeps)
            expected_rows = sum(len(g) for g in sweeps.values()) * len(preset.variants)
            if len(rows) != expected_rows:
                errors.append(f"{preset.name}: {len(rows)} rows, expected {expected_rows}")
                continue
            for l_idx, law in enumerate(preset.variants):
                rng = np.random.default_rng(np.random.SeedSequence((self.seed, 7, p_idx, l_idx)))
                if ordered:
                    sizes = ref.top_order_sizes(law, preset.catalogue_size, k, n_own, rng)
                else:
                    sizes = ref.size_draws(law, n_own, rng)[:, None]
                for sweep_name in sweeps:
                    law_rows = [r for r in rows if r.variant == law and r.sweep_name == sweep_name]
                    if [r.sweep_value for r in law_rows] != [float(v) for v in sweeps[sweep_name]]:
                        errors.append(f"{preset.name} {law}: rows do not follow the {sweep_name} grid")
                        continue
                    for row in law_rows:
                        density = row.sweep_value if sweep_name == "density" else preset.density
                        tau = row.sweep_value if sweep_name == "tau_mean" else preset.fixed_lifespan
                        own = self._own_success(preset, density, tau, sizes)
                        sd = float(own.std(ddof=1))
                        label = f"{preset.name} {law} {sweep_name}={row.sweep_value:g}"
                        se = sd * math.sqrt(1.0 / n_prog + 1.0 / n_own)
                        errors += ref.check_within(f"{label} analytic", row.analytic, float(own.mean()), se, alpha)
                        errors += ref.check_binomial(
                            f"{label} simulated", row.simulated, row.n_iter, row.analytic, alpha, sd / math.sqrt(n_prog)
                        )
                    errors += ref.check_nondecreasing(
                        f"{preset.name} {law} analytic in {sweep_name}", [r.analytic for r in law_rows]
                    )
        return errors


class ClosedForm:
    """The analytics module alone under exponential lifespans; no simulation."""

    name = "closed_form"

    def __init__(self, seed: int):
        self.seed = seed
        self.grids = []  # (preset, [AnalyticInputs per tau])
        for name in ("validate_audio", "validate_video"):
            preset = d2d.build_preset(name, seed=seed)
            popularity = d2d.zipf_popularity(preset.catalogue_size, preset.zipf_exponent)
            sizes = d2d.sample_sizes(
                d2d.ExponentialSize(1.0 / preset.size_mean_bits),
                preset.catalogue_size,
                np.random.default_rng(np.random.SeedSequence((seed, 1))),
            )
            base = d2d.AnalyticInputs(
                density=preset.density,
                radio=_radio(preset),
                fading=d2d.ExponentialFading(1.0),
                lifespan=d2d.ExponentialLifespan(1.0),
                policy=d2d.popularity_weighted_marginals(popularity, preset.cache_capacity),
                catalogue=d2d.ContentCatalogue(popularity=popularity, sizes=sizes),
            )
            inputs = [_with_lifespan(base, d2d.ExponentialLifespan(float(tau))) for tau in preset.sweeps[0][1]]
            self.grids.append((preset, inputs))
        video = self.grids[1][1][0]
        self.expected_inputs = _with_lifespan(video, d2d.ExponentialLifespan(CLOSED_FORM_TAU))
        self.size_law = d2d.UniformSize(0.05e9, 2e9)

    def operations(self):
        ops = []
        for preset, inputs in self.grids:
            for x in inputs:
                tau = x.lifespan.mean
                ops.append((f"{preset.name} total_success tau={tau:g}", lambda x=x: d2d.total_success(x)))
                ops.append((f"{preset.name} coverage tau={tau:g}", lambda x=x: d2d.coverage_radius_scale(x)))
        ops.append(("expected_success", self._expected))
        return ops

    def _expected(self):
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 2)))
        return d2d.expected_success(self.expected_inputs, self.size_law, CLOSED_FORM_DRAWS, rng)

    def fingerprint(self, result):
        if isinstance(result, float):
            return result
        return (result.value, result.standard_error, result.sample_count)

    def check(self, results) -> list[str]:
        errors = []
        pos = 0
        for preset, inputs in self.grids:
            a, b, c = _model(preset)
            cached = b > 0
            radio = inputs[0].radio
            q = 2.0 / radio.pathloss_exponent
            successes = []
            for x in inputs:
                tau = x.lifespan.mean
                label = f"{preset.name} tau={tau:g}"
                sizes = x.catalogue.sizes[cached]
                own = ref.moment_exponential(sizes / (radio.bandwidth * tau), radio.pathloss_exponent)
                for z, want in zip(sizes, own):
                    got = d2d.lifespan_moment_exponential(float(z), tau, radio.bandwidth, radio.pathloss_exponent)
                    errors += ref.check_relative(f"{label} I_T(z={z:.6g})", got, float(want), 1e-7)
                total, scale = results[pos], results[pos + 1]
                pos += 2
                if total is not None:
                    successes.append(total.value)
                    want = math.fsum(a[cached] * -np.expm1(-c * b[cached] * own))
                    errors += ref.check_relative(f"{label} total_success", total.value, want, 1e-6)
                if scale is not None:
                    want = (radio.power / radio.noise) ** (q / 2) * math.sqrt(math.gamma(1 + q) * own.max())
                    errors += ref.check_relative(f"{label} coverage_radius_scale", scale, want, 1e-7)
            mass = math.fsum(a[cached])
            errors += ref.check_nondecreasing(f"{preset.name} total_success in tau", successes)
            errors += [f"{preset.name}: total_success {s!r} exceeds cached mass {mass!r}" for s in successes if s > mass + 1e-12]
        expected = results[pos]
        if expected is not None:
            errors += self._check_expected(expected)
        return errors

    def _check_expected(self, got) -> list[str]:
        preset = self.grids[1][0]
        a, b, c = _model(preset)
        cached = b > 0
        n_own = CLOSED_FORM_OWN_DRAWS
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 7)))
        z = ref.size_draws(CLOSED_FORM_LAW, n_own, rng)
        moments = ref.moment_exponential(z / (preset.bandwidth * CLOSED_FORM_TAU), preset.alpha)
        own = 1.0 - a[~cached].sum() - np.exp(-np.outer(moments, c * b[cached])) @ a[cached]
        se = math.sqrt(got.standard_error**2 + float(own.var(ddof=1)) / n_own)
        return ref.check_within("expected_success uniform", got.value, float(own.mean()), se, ref.FALSE_ALARM)


def _with_lifespan(inputs, lifespan):
    return d2d.AnalyticInputs(
        density=inputs.density,
        radio=inputs.radio,
        fading=inputs.fading,
        lifespan=lifespan,
        policy=inputs.policy,
        catalogue=inputs.catalogue,
    )


WORKLOADS = {w.name: w for w in (ValidateSweep, ComparisonSweep, ClosedForm)}

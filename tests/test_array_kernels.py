"""Frostman sampler, plank scan, annulus raster and rectangle multiplicity
against their per-item and single-pass routes.

The library kernels work on whole arrays, in fixed blocks; `oracle_suites`
keeps the routes that loop over one draw level, direction or annulus at a
time, and the single-pass rectangle multiplicity.  Outputs must agree
exactly: equal integer arrays, bitwise-equal floats and the same scalar
types (CSVs print the values as they come).
"""

import math
import re
import tracemalloc

import numpy as np
import pytest

from conelab import maximal, measures, tangency
from conelab.geometry import COORD_TOL, lightlike_frame
from conelab.maximal import (
    HIST_ROWS,
    _annulus_spans,
    _level_counts,
    _span_events,
    default_grid,
    multiplicity_field,
    wolff_example_check,
)
from conelab.measures import (
    MAXIMAL_RADII,
    Q_PLANAR,
    Q_RADII,
    CircleConfig,
    _frostman_sample,
    _lightplank_scan,
    _pack_keys,
    gamma_tau,
    generate,
    generate_config,
    max_plank_mass,
)
from conelab.rectangles import CORNER_COLUMNS, polar_points, sample_polar
from conelab.tangency import classify_pairs, nu_multiplicity
from oracle_suites import (
    frostman_sample_tuple_keys,
    nu_multiplicity_single_pass,
    plank_count_per_direction,
    raster_per_annulus,
)

KINDS = ("light_tube", "vertical_tube", "knapp_pair", "wolff_radii", "random_frostman")
DELTAS = tuple(2.0 ** -k for k in range(5, 10))


# Span layouts for the event-route histogram.  At delta = 2^-4 (h = 2^-6) a
# disk (radius 0) whose centre is off the nodes gives each row two abutting
# spans, and the second disk starts one column after the first ends, so a -1
# and a +1 share a cell at the top count 1; a start sorted before the end
# there would pass count 2, which no cell holds.  Two annuli 7 h apart share
# end and start cells.  A disk of radius 1.1 spans columns 0 to n - 1 and
# covers its middle row whole.  At delta = 0.55 the first disk's span on row
# 8 ends in column n - 1 and the second's on row 9 starts in column 0: the
# same cell in row-major order.
_H4 = 2.0 ** -6
EVENT_CASES = {
    "abutting": CircleConfig(np.array([[-0.2, 0.0, 0.0], [-0.2 + 8 * _H4 + _H4 / 2, 0.0, 0.0]]),
                             2.0 ** -4),
    "shared cell": CircleConfig(np.array([[0.0, 0.0, 0.5], [7 * _H4, 0.0, 0.5]]), 2.0 ** -4),
    "window edge": CircleConfig(np.array([[0.0, 0.0, 0.0]]), 1.1),
    "row break": CircleConfig(np.array([[0.55, 0.0, 0.0], [-0.55, 0.1375, 0.0]]), 0.55),
    "empty block": CircleConfig(np.array([[0.0, 0.0, 0.3]]), 2.0 ** -5),
    "no circles": CircleConfig(np.empty((0, 3)), 2.0 ** -5),
}


def pairs_taus(config) -> list:
    """The tau values the pairs sweep asks gamma_tau for."""
    taus = [math.sqrt(config.delta / D) for D in classify_pairs(config).dyadic_D()
            if D >= 8 * config.delta]
    assert taus
    return taus


def bits(a) -> np.ndarray:
    """Float array as its int64 bit patterns, so equality is bitwise."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def with_oracle(monkeypatch, name, oracle, call):
    """call() with measures.<name> swapped for the oracle route."""
    monkeypatch.setattr(measures, name, oracle)
    try:
        return call()
    finally:
        monkeypatch.undo()


def on_line(*xs) -> list:
    """Sampler draws (x, 0, 0), as float arrays."""
    return [np.array([x, 0.0, 0.0]) for x in xs]


def placed(point, out) -> bool:
    return any(np.array_equal(point, p) for p in out)


def both_samplers(draws, n, base=1.0, span=16.0, max_attempts=None):
    """(points, draw() calls) of `_frostman_sample` on a fixed draw list, checked
    bitwise against the one-draw-at-a-time oracle, calls included."""
    results = []
    for sampler in (_frostman_sample, frostman_sample_tuple_keys):
        calls = []

        def draw():
            calls.append(None)
            return draws[len(calls) - 1]
        out = sampler(draw, n, base, span, len(draws) if max_attempts is None else max_attempts)
        results.append((out, len(calls)))
    (out, calls), (ref, ref_calls) = results
    assert calls == ref_calls
    assert np.array_equal(bits(np.reshape(out, (-1, 3))), bits(np.reshape(ref, (-1, 3))))
    return out, calls


def with_plank_oracle(monkeypatch, call):
    """call() with the plank scan answered by the per-direction oracle.

    The adapter takes the scan's signature and makes one oracle call per
    widen and per weight row; the assert catches a production route that
    no longer reaches the scan by that name.
    """
    calls = []

    def adapter(points, half_dims, dir_spacing, widens, weights=None):
        calls.append(widens)
        if weights is None:
            return [plank_count_per_direction(points, half_dims, dir_spacing, w) for w in widens]
        return np.array([[plank_count_per_direction(points, half_dims, dir_spacing, w, row)
                          for row in weights] for w in widens])

    out = with_oracle(monkeypatch, "_max_lattice_plank_count", adapter, call)
    assert calls
    return out


def weight_stack(n: int, seed: int) -> np.ndarray:
    """Rows of ones, alternating 1/0 and uniform [0, 1) weights."""
    rng = np.random.default_rng(seed)
    return np.vstack([np.ones(n), (np.arange(n) % 2).astype(float), rng.random(n)])


def same_values(got, ref) -> bool:
    """Equal by `==` with equal types, arrays compared bitwise with equal dtypes."""
    if isinstance(got, np.ndarray):
        return (type(ref) is np.ndarray and got.dtype == ref.dtype
                and np.array_equal(bits(got), bits(ref)))
    if isinstance(got, (tuple, list)):
        return (type(got) is type(ref) and len(got) == len(ref)
                and all(same_values(g, r) for g, r in zip(got, ref)))
    return got == ref and type(got) is type(ref)


def same_at_every_block_size(monkeypatch, scans) -> None:
    """scans() gives its default-budget values at one direction per block and at all in one."""
    want = scans()
    for budget in (1, 1 << 40):
        monkeypatch.setattr(measures, "PLANK_SCAN_BUDGET", budget)
        assert same_values(scans(), want), budget
        monkeypatch.undo()


class TestFrostmanSampler:
    @pytest.mark.parametrize("R", (16, 32, 64, 128))
    def test_generate_matches_tuple_keys(self, monkeypatch, R):
        for seed in range(5):
            nu = generate("random_frostman", R, seed)
            ref = with_oracle(monkeypatch, "_frostman_sample", frostman_sample_tuple_keys,
                              lambda: generate("random_frostman", R, seed))
            assert np.array_equal(nu.cubes, ref.cubes)

    @pytest.mark.parametrize("delta", DELTAS)
    def test_generate_config_matches_tuple_keys(self, monkeypatch, delta):
        # the Q band holds only a few circles at these resolutions; the
        # maximal band holds the pipelines' 1/(2 delta)
        for band, n in ((Q_RADII, 4), (MAXIMAL_RADII, int(round(0.5 / delta)))):
            config = generate_config("random_frostman", delta, n, 0, radius_band=band)
            ref = with_oracle(monkeypatch, "_frostman_sample", frostman_sample_tuple_keys,
                              lambda: generate_config("random_frostman", delta, n, 0,
                                                      radius_band=band))
            assert np.array_equal(bits(config.circles), bits(ref.circles))

    @pytest.mark.parametrize("entries", (1, 3 << 10))
    def test_batch_size_does_not_change_draws(self, monkeypatch, entries):
        # one draw a batch, and 4-12 draws a batch at these sizes: the default
        # run and the oracle, bitwise
        def runs():
            return ([generate("random_frostman", R, 0).cubes for R in (16, 32, 64, 128)]
                    + [generate_config("random_frostman", delta, int(round(0.5 / delta)), 0,
                                       radius_band=MAXIMAL_RADII).circles
                       for delta in DELTAS[:4]])
        want = runs()
        ref = with_oracle(monkeypatch, "_frostman_sample", frostman_sample_tuple_keys, runs)
        monkeypatch.setattr(measures, "SAMPLER_BATCH_ENTRIES", entries)
        for got, w, r in zip(runs(), want, ref):
            assert np.array_equal(bits(got), bits(w)) and np.array_equal(bits(got), bits(r))

    def test_fuzz_against_tuple_keys(self):
        # small cases of random size, scale, span and attempt cap, drawn from a
        # short point list so that placed and refused points come back
        rng = np.random.default_rng(11)
        full = again_placed = again_refused = 0
        for _ in range(300):
            n = int(rng.integers(1, 24))
            base = float(rng.choice((0.5, 1.0, 2.0)))
            span = base * 2.0 ** int(rng.integers(0, 4))
            pool = rng.uniform(0.0, span, (int(rng.integers(1, 3 * n + 2)), 3))
            draws = list(pool[rng.integers(0, len(pool), int(rng.integers(1, 4 * n + 2)))])
            out, calls = both_samplers(draws, n, base, span, int(rng.integers(1, len(draws) + 1)))
            got = set(map(tuple, out))
            earlier = set()
            for q in map(tuple, draws[:calls]):
                if q in earlier:
                    again_placed += q in got
                    again_refused += q not in got
                else:
                    full += q not in got
                earlier.add(q)
        assert min(full, again_placed, again_refused) > 0

    @pytest.mark.parametrize("delta", DELTAS)
    def test_rejecting_draws_match_tuple_keys(self, delta):
        # the Q band at n = 1/(2 delta) refuses most draws: every level caps
        n = int(round(0.5 / delta))
        span = max(Q_RADII[1] - Q_RADII[0], Q_PLANAR[1] - Q_PLANAR[0])
        outs = []
        for sampler in (_frostman_sample, frostman_sample_tuple_keys):
            rng = np.random.default_rng(7)
            draw = lambda: np.array([rng.uniform(*Q_PLANAR), rng.uniform(*Q_PLANAR),  # noqa: E731
                                     rng.uniform(*Q_RADII)])
            outs.append(np.array(sampler(draw, n, delta, span, 10 * n)).reshape(-1, 3))
        assert 0 < len(outs[0]) < n
        assert np.array_equal(bits(outs[0]), bits(outs[1]))

    @pytest.mark.parametrize("L", (1, 2, 3))
    def test_last_capacity_level_refuses_like_tuple_keys(self, L):
        # draws inside one level-L ball of capacity n - 1, spread so that no
        # smaller ball fills: only level L refuses, and it refuses the n-th
        n = 4 * 2 ** L + 1
        r = 2.0 ** L
        outs = []
        for sampler in (_frostman_sample, frostman_sample_tuple_keys):
            rng = np.random.default_rng(L)

            def draw():
                while True:
                    v = rng.uniform(-r, r, 3)
                    if v @ v <= (0.9 * r) ** 2:
                        return 3 * r + v
            outs.append(np.array(sampler(draw, n, 1.0, 8 * r, 50 * n)))
        assert len(outs[1]) == n - 1
        assert np.array_equal(bits(outs[0]), bits(outs[1]))

    # Batched decisions.  At n = 10 and base 1 the sampler keeps levels 0
    # (radius 1, capacity 4) and 1 (radius 2, capacity 8), so a batch holds up
    # to 32 draws (SAMPLER_BATCH_ENTRIES over 2 x 125 ring nodes), and never
    # more than points still wanted or attempts left: the first batch is the
    # first ten draws.  F fills the level-0 nodes about x = 0, G brings those
    # about x = 2 to 3; B (x = 0.75) meets both groups and C (x = 2.4) only G.
    F = on_line(-0.5, -0.4, -0.3, -0.2)
    G = on_line(2.0, 2.1, 2.2)
    B, C = on_line(0.75, 2.4)
    FAR_OFF = on_line(20.0, 40.0, 60.0)

    def test_refusal_in_mid_batch_is_not_counted(self):
        # the first batch ends (F3, B, C): F3 fills x = 0, so B is refused, and
        # C, which would be the fifth at x = 2 had B counted, is accepted
        F, G, B, C, far = self.F, self.G, self.B, self.C, self.FAR_OFF
        draws = F[:3] + G + far[:1] + [F[3], B, C] + far[1:2]
        out, calls = both_samplers(draws, 10)
        assert calls == len(draws)
        assert placed(C, out) and not placed(B, out)
        # without F3, B is placed and C refused
        out, _ = both_samplers(F[:3] + G + [B, C], 10)
        assert placed(B, out) and not placed(C, out)

    def test_repeats_inside_a_batch(self):
        # first batch: G0 twice, then F1 placed earlier in it, then F3 fills
        # x = 0; second batch: B refused there, then B again; third batch: C
        F, G, B, C, far = self.F, self.G, self.B, self.C, self.FAR_OFF
        draws = F[:3] + [G[0], G[0], G[1], F[1]] + [G[2], far[0], F[3], B, B, C]
        out, calls = both_samplers(draws, 10)
        assert calls == len(draws) and len(out) == 9

    @pytest.mark.parametrize("max_attempts, n_placed", ((5, 5), (10, 9)))
    def test_max_attempts_in_mid_batch(self, max_attempts, n_placed):
        # 5 cuts the first batch to five draws; 10 ends the drawing with the
        # first batch, after B is refused and C accepted in it
        F, G, B, C, far = self.F, self.G, self.B, self.C, self.FAR_OFF
        draws = F[:3] + G + far[:1] + [F[3], B, C] + far[1:2]
        out, calls = both_samplers(draws, 10, max_attempts=max_attempts)
        assert calls == max_attempts and len(out) == n_placed
        assert placed(C, out) == (max_attempts == 10)

    def test_key_range_refusal_inside_a_batch(self):
        # the one batch holds two points past the key range; the first is named
        far = np.array([2.0 ** 17, 0.5, 0.5])
        draws = self.F[:3] + self.G[:1] + [far, self.G[1], far + 8.0]
        with pytest.raises(ValueError, match=re.escape(f"point {far} lies outside")):
            _frostman_sample(iter(draws).__next__, 10, 1.0, 16.0, len(draws))

    @pytest.mark.parametrize("delta", DELTAS)
    def test_no_capped_level(self, delta):
        # at n = 4 no capacity 4 * 2**level is at most n - 1: only repeats refuse
        rng = np.random.default_rng(3)
        box = np.array([Q_PLANAR[1], Q_PLANAR[1], Q_RADII[1]])
        draws = [rng.uniform(0.0, 1.0, 3) * box for _ in range(3)]
        draws = [draws[0], draws[0], draws[1], draws[0], draws[2], draws[1]] + draws
        span = max(Q_RADII[1] - Q_RADII[0], Q_PLANAR[1] - Q_PLANAR[0])
        out, calls = both_samplers(draws, 4, delta, span, max_attempts=len(draws))
        assert calls == len(draws) and len(out) == 3
        rng = np.random.default_rng(4)
        draws = [np.array([rng.uniform(*Q_PLANAR), rng.uniform(*Q_PLANAR), rng.uniform(*Q_RADII)])
                 for _ in range(6)]
        out, calls = both_samplers(draws, 4, delta, span, max_attempts=len(draws))
        assert calls == 4 and len(out) == 4

    def test_packed_keys_injective_at_the_field_limits(self):
        # 6 level bits and 19 coordinate bits: one bit less anywhere aliases
        # some of these keys or flips their sign
        lim = 2 ** 18
        coords = np.array([-lim, -lim + 1, -1, 0, 1, lim - 2, lim - 1])
        grid = np.stack(np.meshgrid(coords, coords, coords, indexing="ij"), -1).reshape(-1, 3)
        levels = np.array([0, 1, 62, 63])
        tuples = [(int(l), *map(int, c)) for l in levels for c in grid]
        keys = np.concatenate([_pack_keys(l, grid) for l in levels])
        assert keys.dtype == np.int64 and keys.min() >= 0
        assert len(np.unique(keys)) == len(keys)
        # keys sort like the (level, i, j, k) tuples they pack
        assert [tuples[i] for i in np.argsort(keys, kind="stable")] == sorted(tuples)

    def test_nodes_beyond_the_key_range_are_refused(self):
        # at base 1 the level-0 node of x is round(2x); 2**17 puts it past 2**18 - 2
        far = np.array([2.0 ** 17, 0.5, 0.5])
        with pytest.raises(ValueError, match="key range"):
            _frostman_sample(lambda: far, 8, 1.0, 16.0, 4)
        near = np.array([2.0 ** 17 - 2.0, 0.5, 0.5])
        assert len(_frostman_sample(lambda: near, 8, 1.0, 16.0, 4)) == 1


def plane_points():
    """Two rows of five points on lattice planes.

    The half dims (2^-5, 2^-3, 2^-1) are powers of two, so at theta = 0, the
    scan's first direction, the points (x, j / 8, z) project onto the middle
    lattice value j exactly; the row at x = z = 0 lies on lattice planes of
    all three axes.  Each row lists its last point first, so a heavy weight
    there makes the sum of the widen-2 plank centred on j = 3 depend on the
    order of its terms.  Returns (points, half dims, direction spacing).
    """
    j = np.array([4, 0, 1, 2, 3]) / 8.0
    rows = [np.column_stack([np.full(5, x), j, np.full(5, z)]) for x, z in ((0.0, 0.0), (0.3, 0.2))]
    return np.vstack(rows), (2.0 ** -5, 2.0 ** -3, 2.0 ** -1), 1 / 8


def heavy_stack(n: int) -> np.ndarray:
    """Rows of ones, 2^53 on every fifth point, and uniform [0, 1) weights.

    2^53 + 1 rounds back to 2^53: with each plane_points row's first point
    that heavy, a plank's sum depends on the order of its terms.
    """
    heavy = np.where(np.arange(n) % 5 == 0, 2.0 ** 53, 1.0)
    return np.vstack([np.ones(n), heavy, np.random.default_rng(0).random(n)])


def rule_cases():
    """(points, half dims, direction spacing) for the half-open rule check, by id.

    plane_points on their lattice planes and moved 1e-13 above and below
    them (8e-13 in plank units at theta = 0), and one pair on the middle
    axis, in plank coordinates (0, -1e-13, 0) or (0, 1e-13, 0) and (0, 2, 0),
    scanned at theta = 0 alone with unit half dims, where its coordinates
    are exact.  Each pair counts 1: (0, 2, 0) lies on the upper face of the
    widen-1 plank centred on (0, 1, 0), which the half-open cell leaves out.
    """
    points, half, spacing = plane_points()
    pair = [np.array([[0.0, y, 0.0], [0.0, 2.0, 0.0]]) for y in (-1e-13, 1e-13)]
    return {"on": (points, half, spacing),
            "above": (points + (0.0, 1e-13, 0.0), half, spacing),
            "below": (points - (0.0, 1e-13, 0.0), half, spacing),
            "pair_below": (pair[0], (1.0, 1.0, 1.0), 7.0),
            "pair_above": (pair[1], (1.0, 1.0, 1.0), 7.0)}


def plank_rule_brute_force(points, half_dims, dir_spacing, widen, weights=None):
    """The scan's value from the half-open rule alone, applied to every centre.

    Every integer centre c of each direction's window, with no floor of a
    point, holds the points with c - widen <= q < c + widen on every axis;
    a plank's weights are added in point order.
    """
    half = np.asarray(half_dims, dtype=float)
    w = np.ones(len(points)) if weights is None else np.asarray(weights, dtype=float)
    best = 0.0
    for i in range(max(1, math.ceil(2 * math.pi / dir_spacing))):
        theta = i * dir_spacing
        q = points @ lightlike_frame(math.cos(theta), math.sin(theta)).T / half
        lo = np.rint(q.min(axis=0)).astype(np.int64) - widen - 1
        hi = np.rint(q.max(axis=0)).astype(np.int64) + widen + 1
        axes = np.meshgrid(*[np.arange(a, b + 1) for a, b in zip(lo, hi)], indexing="ij")
        centres = np.stack(axes, axis=-1).reshape(-1, 1, 3)
        inside = ((centres - widen <= q) & (q < centres + widen)).all(axis=2)   # (centres, n)
        sums = np.cumsum(np.where(inside, w, 0.0), axis=1)[:, -1]   # sequential, point order
        best = max(best, float(sums.max()))
    return int(best) if weights is None else best


class TestPlankScan:
    @pytest.mark.parametrize("kind", KINDS)
    def test_max_plank_mass_matches_per_direction(self, monkeypatch, kind):
        for R, seed in ((16, 0), (32, 1), (64, 2)):
            nu = generate(kind, R, seed)
            w = np.random.default_rng(seed).uniform(0.0, 2.0, (1, nu.mass))
            got = (max_plank_mass(nu), _lightplank_scan(nu, (1, 2), w))
            ref = with_plank_oracle(monkeypatch,
                                    lambda: (max_plank_mass(nu), _lightplank_scan(nu, (1, 2), w)))
            assert same_values(got, ref)
            assert [type(v) for v in got[0]] == [int, int]

    @pytest.mark.parametrize("kind", KINDS)
    def test_weight_stack_matches_per_direction(self, monkeypatch, kind):
        for R, seed in ((16, 0), (32, 1), (64, 2)):
            nu = generate(kind, R, seed)
            stack = weight_stack(nu.mass, seed)
            got = _lightplank_scan(nu, (1, 2), stack)
            ref = with_plank_oracle(monkeypatch, lambda: _lightplank_scan(nu, (1, 2), stack))
            assert got.shape == (2, len(stack))
            assert (got == ref).all()
            assert same_values(got, ref)
            # each row is the scan of that row alone, and the row of ones counts
            rows = [_lightplank_scan(nu, (1, 2), h[None]) for h in stack]
            assert same_values(got, np.hstack(rows))
            assert tuple(got[:, 0]) == max_plank_mass(nu)

    @pytest.mark.parametrize("kind", ("wolff_radii", "random_frostman"))
    @pytest.mark.parametrize("delta", (2.0 ** -6, 2.0 ** -8))
    def test_gamma_tau_matches_per_direction_at_pairs_taus(self, monkeypatch, kind, delta):
        config = generate_config(kind, delta, int(round(0.5 / delta)), 0,
                                 radius_band=MAXIMAL_RADII)
        taus = pairs_taus(config)
        got = [gamma_tau(config, tau) for tau in taus]
        ref = with_plank_oracle(monkeypatch, lambda: [gamma_tau(config, tau) for tau in taus])
        assert got == ref and all(type(g) is int for g in got)

    @pytest.mark.parametrize("kind", KINDS)
    def test_block_size_does_not_change_results(self, monkeypatch, kind):
        def scans():
            out = []
            for R in (16, 32, 64):
                nu = generate(kind, R, 0)
                w = weight_stack(nu.mass, R)
                out.append((max_plank_mass(nu), _lightplank_scan(nu, (1, 2), w[2:]),
                            _lightplank_scan(nu, (1, 2), w)))
            return out

        same_at_every_block_size(monkeypatch, scans)

    @pytest.mark.parametrize("kind", ("wolff_radii", "random_frostman"))
    def test_gamma_tau_block_size_does_not_change_results(self, monkeypatch, kind):
        configs = [generate_config(kind, delta, int(round(0.5 / delta)), 0,
                                   radius_band=MAXIMAL_RADII)
                   for delta in (2.0 ** -6, 2.0 ** -8)]

        same_at_every_block_size(
            monkeypatch, lambda: [[gamma_tau(c, tau) for tau in pairs_taus(c)] for c in configs])

    def test_plane_points_through_gamma_tau(self, monkeypatch):
        # the plane_points circles sit on gamma_tau's plank half dims at tau = 1/4
        points, half, spacing = plane_points()
        count = measures._max_lattice_plank_count(points, half, spacing, (2,))[0]
        config = CircleConfig(points, delta=2.0 ** -5)
        assert gamma_tau(config, 0.25) == count
        assert with_plank_oracle(monkeypatch, lambda: gamma_tau(config, 0.25)) == count

    @pytest.mark.parametrize("weighted", (False, True))
    @pytest.mark.parametrize("widens", ((1, 2), (2,)))
    @pytest.mark.parametrize("case", tuple(rule_cases()))
    def test_half_open_rule_matches_oracles(self, case, widens, weighted):
        # the per-direction oracle takes its candidates from floor(q), the
        # brute force tests every centre of the window with no floor
        points, half, spacing = rule_cases()[case]
        stack = heavy_stack(len(points)) if weighted else None
        got = measures._max_lattice_plank_count(points, half, spacing, widens, stack)
        for oracle in (plank_count_per_direction, plank_rule_brute_force):
            if stack is None:
                ref = [oracle(points, half, spacing, w) for w in widens]
            else:
                ref = np.array([[oracle(points, half, spacing, w, row) for row in stack]
                                for w in widens])
            assert same_values(got, ref), oracle.__name__

    def test_return_types(self):
        nu = generate("knapp_pair", 16, 0)
        lower, upper = max_plank_mass(nu)
        assert type(lower) is int and type(upper) is int
        sl, su = _lightplank_scan(nu, (1, 2), np.full((2, nu.mass), 0.5))
        assert sl.dtype == su.dtype == np.float64 and sl.shape == su.shape == (2,)
        assert list(sl) == [0.5 * lower] * 2 and list(su) == [0.5 * upper] * 2
        config = generate_config("wolff_radii", 2.0 ** -6, 16, 0, radius_band=MAXIMAL_RADII)
        assert type(gamma_tau(config, 0.25)) is int


def full_spans(circles, delta, grid):
    """_annulus_spans of one or more circles over every row of the grid."""
    return _annulus_spans(circles, delta, grid, 0, len(grid.nodes_1d))


def geom_candidates(config):
    """(cores, dirs, tau) of main_geom_check's candidate grid: each circle at each arc node."""
    tau = math.sqrt(config.delta)
    n_arc = max(4, math.ceil(2 * math.pi / tau))
    angles = np.arange(n_arc) * (2 * math.pi / n_arc)
    units = np.column_stack([np.cos(angles), np.sin(angles)])
    return np.repeat(config.circles, n_arc, axis=0), np.tile(units, (config.count, 1)), tau


def a0_edge_ladders(w, far, offsets, delta):
    """Rectangles of arc length 0 whose a0 lies within ulps of annulus edges about w'.

    With tau = 0 every sample point lies on the radial segment a0 -+ delta u,
    here perpendicular to a0 - w', so a circle about w' whose inner edge
    passes a0 holds all 80 points and counts exactly when a0 passes its
    band test.  Each a0 is w' + D e for D in `offsets`, e the unit vector
    towards the centre `far`: on that line the triangle inequality that sets
    the radius window is an equality.  Each a0 gets two ladders of nine
    circles about w', with radii a few ulps either side of
    |a0 - w'| +- (delta + COORD_TOL).  Returns (config, cores, dirs).
    """
    slack = delta + COORD_TOL
    w, far = np.asarray(w), np.asarray(far)
    e = (far - w) / np.hypot(*(far - w))
    n = np.array([-e[1], e[0]])
    circles, cores, dirs = [(*far, 0.7)], [], []
    for D in offsets:
        a0 = w + D * e
        dist = float(np.hypot(*(a0 - w)))
        circles += [(*w, r + k * math.ulp(r)) for r in (dist + slack, dist - slack)
                    for k in range(-4, 5)]
        for up in (1.0, -1.0):
            cores.append((*(a0 - 0.3 * up * n), 0.3))
            dirs.append(up * n)
    return CircleConfig(np.array(circles), delta), np.array(cores), np.array(dirs)


def traced_peak(call):
    """(call(), peak bytes traced by tracemalloc while it ran)."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRaster:
    @pytest.mark.parametrize("kind", ("wolff_radii", "random_frostman"))
    @pytest.mark.parametrize("delta", (2.0 ** -5, 2.0 ** -6, 2.0 ** -7))
    def test_multiplicity_field_matches_per_annulus(self, kind, delta):
        config = generate_config(kind, delta, int(round(0.5 / delta)), 1,
                                 radius_band=MAXIMAL_RADII)
        field, grid = multiplicity_field(config)
        spans = [full_spans(c, delta, grid) for c in config.circles]
        ref = raster_per_annulus(spans, len(grid.nodes_1d))
        assert field.dtype == np.int16
        assert np.array_equal(field, ref.astype(np.int16))

    def test_raster_blocks_are_int32_and_the_field_int16(self):
        delta = 2.0 ** -5
        circles = ((0.0, 0.0, 0.7), (0.01, 0.0, 0.7))
        grid = default_grid(delta)
        n = len(grid.nodes_1d)
        ref = raster_per_annulus([full_spans(circles, delta, grid)], n)
        assert ref.max() == 2
        # a block of rows that the annuli cross: its event cells and counts stay int32
        cells, level = _span_events(_annulus_spans(circles, delta, grid, 100, 150), 50, n)
        assert cells.dtype == np.int32 and level.dtype == np.int32 and level.max() == 2
        field, _ = multiplicity_field(CircleConfig(np.array(circles), delta))
        assert field.dtype == np.int16 and field.flags.c_contiguous
        assert np.array_equal(field, ref)

    def test_level_counts_above_255(self):
        # 300 annuli about one center: multiplicities past any 8-bit count
        shifts = np.linspace(0.0, 0.01, 300)
        config = CircleConfig(np.column_stack([shifts, shifts[::-1], np.full(300, 0.7)]),
                              delta=2.0 ** -5)
        grid = default_grid(config.delta)
        spans = [full_spans(c, config.delta, grid) for c in config.circles]
        ref = np.bincount(raster_per_annulus(spans, len(grid.nodes_1d)).ravel())
        hist = _level_counts(config, grid)
        assert len(hist) > 256 and np.array_equal(hist, ref)

    @pytest.mark.parametrize("rows", (1, 7, 1 << 20))
    def test_block_size_does_not_change_the_field(self, monkeypatch, rows):
        config = generate_config("wolff_radii", 2.0 ** -6, 32, 2, radius_band=MAXIMAL_RADII)
        field, _ = multiplicity_field(config)
        report = wolff_example_check(config)
        monkeypatch.setattr(maximal, "HIST_ROWS", rows)
        assert np.array_equal(multiplicity_field(config)[0], field)
        assert wolff_example_check(config) == report

    def test_multiplicity_field_allocates_one_int16_field(self):
        # a few circles on a fine grid: the field dominates every other
        # allocation, so a widened cumsum or an int16 copy of it shows
        config = CircleConfig(np.array([[0.0, 0.0, 0.6], [0.01, 0.0, 0.6],
                                        [0.0, 0.02, 0.9]]), delta=2.0 ** -8)
        (field, _), peak = traced_peak(lambda: multiplicity_field(config))
        assert field.dtype == np.int16
        assert peak - field.nbytes < field.nbytes

    def test_wolff_example_check_holds_no_field(self):
        # the report is read block by block: its peak stays below the int16
        # field of the same grid, which the whole-field route had to hold
        config = generate_config("wolff_radii", 2.0 ** -8, 128, 0, radius_band=MAXIMAL_RADII)
        n = len(default_grid(config.delta).nodes_1d)
        _, peak = traced_peak(lambda: wolff_example_check(config))
        assert peak < n * n * np.dtype(np.int16).itemsize

    @pytest.mark.parametrize("circles", (
        [[0.0, 0.0, 1.0]],
        [[0.0, 0.0, 0.6], [0.01, 0.0, 0.6], [0.0, 0.02, 0.61]],
    ))
    def test_histogram_equals_bincount(self, circles):
        config = CircleConfig(np.array(circles), delta=2.0 ** -7)
        grid = default_grid(config.delta)
        n = len(grid.nodes_1d)
        assert n % HIST_ROWS != 0  # the last row block is partial
        # every annulus is taller than a block, so each crosses a block boundary
        assert np.all(2 * (config.circles[:, 2] - config.delta) > HIST_ROWS * grid.h)
        spans = [full_spans(c, config.delta, grid) for c in config.circles]
        ref = np.bincount(raster_per_annulus(spans, n).ravel())
        hist = _level_counts(config, grid)
        assert hist.dtype == ref.dtype and np.array_equal(hist, ref)

    @pytest.mark.parametrize("rows", (1, 7, 1 << 20))
    @pytest.mark.parametrize("case", sorted(EVENT_CASES))
    def test_span_events_equal_dense_bincount(self, monkeypatch, case, rows):
        config = EVENT_CASES[case]
        monkeypatch.setattr(maximal, "HIST_ROWS", rows)
        grid = default_grid(config.delta)
        spans = [full_spans(c, config.delta, grid) for c in config.circles]
        ref = raster_per_annulus(spans, len(grid.nodes_1d))
        field, _ = multiplicity_field(config)
        assert field.dtype == np.int16 and np.array_equal(field, ref)
        hist = _level_counts(config, grid)
        ref_hist = np.bincount(ref.ravel())
        assert hist.dtype == ref_hist.dtype and len(hist) == len(ref_hist)
        assert np.array_equal(hist, ref_hist)

    def test_event_cases_reach_their_edges(self):
        # each EVENT_CASES entry holds the event layout it is named for
        spans = {}
        for case, config in EVENT_CASES.items():
            grid = default_grid(config.delta)
            n = len(grid.nodes_1d)
            spans[case] = (n, _annulus_spans(config.circles, config.delta, grid, 0, n))
        n, (rows, starts, ends) = spans["abutting"]
        row_ends = set(zip(rows.tolist(), (ends + 1).tolist()))
        assert row_ends & set(zip(rows.tolist(), starts.tolist()))
        assert multiplicity_field(EVENT_CASES["abutting"])[0].max() == 1
        n, (rows, starts, ends) = spans["shared cell"]
        assert set(zip(rows.tolist(), ends.tolist())) & set(zip(rows.tolist(), starts.tolist()))
        n, (rows, starts, ends) = spans["window edge"]
        assert starts.min() == 0 and ends.max() == n - 1
        field = multiplicity_field(EVENT_CASES["window edge"])[0]
        assert (field > 0).all(axis=1).any()  # a one-row block covered everywhere
        n, (rows, starts, ends) = spans["row break"]
        assert set((rows[ends == n - 1] + 1).tolist()) & set(rows[starts == 0].tolist())
        assert multiplicity_field(EVENT_CASES["row break"])[0].max() == 1
        n, (rows, _, _) = spans["empty block"]
        assert rows.min() >= 7 and rows.max() < n - 7  # the first and last 7-row blocks hold none
        assert len(spans["no circles"][1][0]) == 0

    def test_wolff_example_check_matches_per_annulus(self):
        # the report from the reference raster and a plain bincount
        config = generate_config("wolff_radii", 2.0 ** -6, 32, 0, radius_band=MAXIMAL_RADII)
        grid = default_grid(config.delta)
        spans = [full_spans(c, config.delta, grid) for c in config.circles]
        m = raster_per_annulus(spans, len(grid.nodes_1d)).astype(np.int16)
        hist = np.bincount(m.ravel())
        l32 = float(np.sum(hist * np.arange(len(hist)) ** 1.5) * grid.cell_area) ** (2.0 / 3.0)
        out = wolff_example_check(config)
        assert out["l32_norm"] == l32
        assert out["ratio"] == l32 / (config.delta * config.count) ** (2.0 / 3.0)


class TestNuMultiplicity:
    @pytest.mark.parametrize("kind", ("wolff_radii", "random_frostman"))
    @pytest.mark.parametrize("delta", (2.0 ** -5, 2.0 ** -6, 2.0 ** -7, 2.0 ** -8, 2.0 ** -9))
    def test_matches_single_pass(self, kind, delta):
        # the single pass holds every candidate's points at once: seed 0 alone at 2^-9
        for seed in range(3 if delta > 2.0 ** -9 else 1):
            config = generate_config(kind, delta, int(round(0.5 / delta)), seed,
                                     radius_band=MAXIMAL_RADII)
            cores, dirs, tau = geom_candidates(config)
            counts = nu_multiplicity(config, cores, dirs, tau)
            ref = nu_multiplicity_single_pass(config, cores, dirs, tau)
            assert counts.dtype == ref.dtype and np.array_equal(counts, ref)

    def test_several_annuli_and_the_own_circle_rule(self):
        # At delta = 2^-6 the containment slack is 1e-7 delta + COORD_TOL =
        # 2.5625e-9.  c0 is doubled exactly and once more with its radius
        # 1e-9 larger, so rectangles on it lie in three or four annuli.
        # `shifted` moves c0's centre 2.62e-9 along +x: the four corners of
        # c0's +x rectangle see about 0.97 of that, inside the slack, the
        # inner arc's middle sees all of it, so only the 76 other points
        # reject it.  Circles of height <= delta are sampled, not counted by
        # the own-circle rule: heights delta/2 and 0 hold their rectangles,
        # height -delta/4 passes the a0 test and fails the sampled one.
        delta = 2.0 ** -6
        c0 = (0.1, 0.2, 0.5)
        shifted = (0.1 + 2.62e-9, 0.2, 0.5)
        low = [(0.6, 0.6, delta / 2), (-0.4, 0.6, 0.0), (0.6, -0.4, -delta / 4)]
        circles = [c0, c0, (0.1, 0.2, 0.5 + 1e-9), shifted] + low
        config = CircleConfig(np.array(circles), delta)
        cores, dirs, tau = geom_candidates(config)
        with np.errstate(invalid="ignore", divide="ignore"):
            counts = nu_multiplicity(config, cores, dirs, tau)
            ref = nu_multiplicity_single_pass(config, cores, dirs, tau)
        assert counts.dtype == ref.dtype and np.array_equal(counts, ref)
        n_arc = len(cores) // config.count
        by_core = {tuple(c): counts[i * n_arc:(i + 1) * n_arc]
                   for i, c in enumerate(config.circles.tolist())}
        assert by_core[c0].min() >= 3 and by_core[c0].max() == 4
        assert [by_core[c].tolist() for c in low] == [[1] * n_arc, [1] * n_arc, [0] * n_arc]
        # c0's +x rectangle passes the corners of `shifted` and fails the rest
        radius, angle = sample_polar(np.array([c0]), np.array([[1.0, 0.0]]), delta, tau)
        diff = polar_points(np.array([c0]), radius, angle)[0] - shifted[:2]
        band = np.abs(np.hypot(diff[:, 0], diff[:, 1]) - shifted[2])
        inside = band <= delta + 1e-7 * delta + COORD_TOL
        assert inside[CORNER_COLUMNS].all() and not inside.all()
        assert by_core[c0][0] == 3

    def test_radius_window_keeps_the_a0_edge(self):
        # a0 within ulps of an annulus edge, where the radius window about
        # |a0 - m| is tight: a window without its rounding margin, delta or
        # COORD_TOL drops passing circles here.  The lengths keep each
        # rectangle's ladder more than 2 delta from the others, so a count
        # strictly between 0 and 9 is a ladder split at its edge.
        rng = np.random.default_rng(0)
        split = 0
        for _ in range(24):
            w, far = rng.uniform(-0.3, 0.3, (2, 2))
            offsets = np.array([0.5, -0.55, 0.6, -0.65, 0.7, -0.75])
            offsets += np.sign(offsets) * rng.uniform(0, 0.01, 6)
            config, cores, dirs = a0_edge_ladders(w, far, offsets, 2.0 ** -6)
            counts = nu_multiplicity(config, cores, dirs, 0.0)
            ref = nu_multiplicity_single_pass(config, cores, dirs, 0.0)
            assert counts.dtype == ref.dtype and np.array_equal(counts, ref)
            assert counts.max() < 9
            split += np.count_nonzero(counts > 0)
        assert split > 200

    def test_radius_window_edge_cases(self):
        # one centre for all (|w' - m| = 0, duplicates included), one circle,
        # no circle, and cores off every circle; a centre that is NaN is refused
        delta = 2.0 ** -6
        centre = (0.05, -0.03)
        concentric = [(*centre, r) for r in (0.5, 0.5, 0.5 + 1e-9, 0.6, 0.6 + delta / 2, 0.6)]
        with pytest.raises(ValueError, match="finite"):
            CircleConfig(np.array(concentric + [(math.nan, 0.0, 0.5)]), delta)
        cases = [CircleConfig(np.array(concentric), delta),
                 CircleConfig(np.array([[0.1, 0.2, 0.5]]), delta),
                 CircleConfig(np.empty((0, 3)), delta)]
        ladder, ladder_cores, ladder_dirs = a0_edge_ladders(centre, (0.3, -0.1), (0.55, -0.6),
                                                            delta)
        cases.append(CircleConfig(np.vstack((concentric, ladder.circles[1:])), delta))
        cores, dirs, tau = geom_candidates(cases[0])
        off = cores + np.random.default_rng(1).choice([0.0, 1e-10, 1e-3], size=cores.shape)
        candidates = ((cores, dirs, tau), (off, dirs, tau), (ladder_cores, ladder_dirs, 0.0))
        for config in cases:
            for args in candidates:
                counts = nu_multiplicity(config, *args)
                ref = nu_multiplicity_single_pass(config, *args)
                assert counts.dtype == ref.dtype and np.array_equal(counts, ref)
        # on the concentric family: the three annuli about radius 0.5, two and one about 0.6
        assert sorted(set(nu_multiplicity(cases[0], cores, dirs, tau).tolist())) == [1, 2, 3]

    @pytest.mark.parametrize("block", (1, 7, 1 << 20))
    def test_block_size_does_not_change_counts(self, monkeypatch, block):
        config = generate_config("random_frostman", 2.0 ** -6, 32, 1, radius_band=MAXIMAL_RADII)
        cores, dirs, tau = geom_candidates(config)
        want = nu_multiplicity(config, cores, dirs, tau)
        monkeypatch.setattr(tangency, "NU_BLOCK", block)
        assert np.array_equal(nu_multiplicity(config, cores, dirs, tau), want)

    def test_no_candidates(self):
        config = generate_config("wolff_radii", 2.0 ** -5, 16, 0, radius_band=MAXIMAL_RADII)
        out = nu_multiplicity(config, np.empty((0, 3)), np.empty((0, 2)), 0.25)
        ref = nu_multiplicity_single_pass(config, np.empty((0, 3)), np.empty((0, 2)), 0.25)
        assert out.dtype == ref.dtype and out.shape == ref.shape == (0,)

    def test_peak_is_bounded_by_the_block(self):
        # 12,928 candidates at delta = 2^-8: the single pass holds the whole
        # candidates x circles band matrix and every surviving pair's points
        config = generate_config("wolff_radii", 2.0 ** -8, 128, 0, radius_band=MAXIMAL_RADII)
        cores, dirs, tau = geom_candidates(config)
        assert len(cores) == 12928
        _, peak = traced_peak(lambda: nu_multiplicity(config, cores, dirs, tau))
        assert peak < 16 * 2 ** 20

"""Grid rendering, adjacent systems, maximal function and the heavy-cube stopping run."""

import dataclasses
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from rectilab import stopping as st

CONFIG = st.StoppingConfig(N=40, M=2)


def brute_cells(center, radius, depth):
    """Mask over the whole grid of the cells whose centres lie in the ball, cell by cell."""
    d = len(center)
    size = 2**depth
    h = 2.0**-depth
    mask = np.zeros((size,) * d, dtype=bool)
    for cell in np.ndindex(*mask.shape):
        x = (np.array(cell) + 0.5) * h
        mask[cell] = sum((x[j] - center[j]) ** 2 for j in range(d)) <= radius**2
    return mask


def sample_family(d, rng, count):
    radii = rng.uniform(0.02, 0.3, size=count)
    centers = np.column_stack([rng.uniform(radii, 1.0 - radii) for _ in range(d)])
    # a ball that reaches the cube's faces, and one too small to hold a cell centre
    centers = np.vstack([centers, np.full(d, 0.5), np.full(d, 0.25)])
    radii = np.concatenate([radii, [0.5], [1e-3]])
    return st.BallFamily(centers, radii, rng.uniform(0.0, 2.0, size=count + 2))


def cube_bounds(cube, d):
    """Bounds of a system cube from its definition: one-third shift per set bit."""
    shift = np.array([((cube.system >> j) & 1) / 3.0 for j in range(d)])
    lo = shift + np.array(cube.cell, dtype=float) * 2.0**-cube.level
    return lo, lo + 2.0**-cube.level


def families(d, depth, count, profile, config=CONFIG):
    return [
        st.random_family(d, np.random.default_rng(seed), profile=profile, config=config, grid_depth=depth)
        for seed in range(count)
    ]


class TestGridRendering:
    @pytest.mark.parametrize("d,depth", [(1, 6), (2, 5), (3, 3)])
    def test_from_balls_and_volume_match_brute_force(self, d, depth):
        fam = sample_family(d, np.random.default_rng(d), 6)
        expected = np.zeros((2**depth,) * d)
        for i in range(len(fam)):
            cells = brute_cells(fam.centers[i], fam.radii[i], depth)
            expected[cells] += fam.weights[i]
            volume = st.grid_ball_volume(fam.centers[i], fam.radii[i], depth, d)
            assert volume == cells.sum() * 2.0 ** (-depth * d)
        np.testing.assert_array_equal(st.GridFunction.from_balls(fam, depth).values, expected)

    def test_ball_without_cell_centre_has_no_volume(self):
        assert st.grid_ball_volume(np.array([0.25, 0.25]), 1e-3, 5, 2) == 0.0


class TestBallFamily:
    @pytest.mark.parametrize("field", ["centers", "radii", "weights"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, field, bad):
        args = {
            "centers": np.array([[0.5, 0.5], [0.3, 0.3]]),
            "radii": np.array([0.1, 0.2]),
            "weights": np.ones(2),
        }
        args[field].flat[1] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            st.BallFamily(**args)


class TestAdjacentSystems:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_locate_contains_ball_with_bounded_ratio(self, d):
        systems = st.AdjacentSystems(d)
        rng = np.random.default_rng(10 + d)
        for _ in range(200):
            radius = math.exp(rng.uniform(math.log(1e-3), math.log(0.5)))
            center = rng.uniform(radius, 1.0 - radius, size=d)
            cube, ratio = systems.locate(center, radius)
            lo, hi = cube_bounds(cube, d)
            assert np.all(center - radius >= lo - 1e-15) and np.all(center + radius <= hi + 1e-15)
            ball_volume = math.pi ** (d / 2) / math.gamma(d / 2 + 1) * radius**d
            assert ratio == pytest.approx(2.0 ** (-cube.level * d) / ball_volume, rel=1e-12)
            assert ratio <= systems.covering_constant + 1e-9

    def test_locate_rejects_ball_outside_unit_cube(self):
        with pytest.raises(ValueError):
            st.AdjacentSystems(2).locate(np.array([0.05, 0.5]), 0.1)


class TestMaximalFunction:
    @pytest.mark.parametrize("d,depth", [(1, 8), (2, 5), (3, 3)])
    def test_dominates_f(self, d, depth):
        f = st.GridFunction.from_balls(sample_family(d, np.random.default_rng(20 + d), 5), depth)
        assert np.all(st.maximal_function(f).values >= f.values)

    @pytest.mark.parametrize("d,depth", [(1, 8), (2, 5), (3, 3)])
    def test_monotone_in_f(self, d, depth):
        rng = np.random.default_rng(30 + d)
        shape = (2**depth,) * d
        for _ in range(5):
            f = rng.uniform(0.0, 2.0, shape) * (rng.random(shape) < 0.3)
            g = f + rng.uniform(0.0, 1.0, shape) * (rng.random(shape) < 0.5)
            mf = st.maximal_function(st.GridFunction(f, depth)).values
            mg = st.maximal_function(st.GridFunction(g, depth)).values
            # the averages come from FFTs, hence the rounding allowance
            assert np.all(mf <= mg + 1e-12 * g.max())

    def test_rejects_negative_grid(self):
        values = np.zeros((8, 8))
        values[3, 4] = -1e-9
        with pytest.raises(ValueError):
            st.maximal_function(st.GridFunction(values, 3))


def test_import_leaves_out_scipy_signal_and_stats():
    """``maximal_function`` calls scipy.fft itself, so importing the package
    does not load scipy.signal or the scipy.stats it pulls in."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, rectilab; print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))"
    # ``python -c`` puts its working directory first on sys.path
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestHeavyCubes:
    @pytest.mark.parametrize("d,depth", [(1, 10), (2, 6)])
    def test_early_exit_exactly_above_M(self, d, depth):
        seen = set()
        for fam in families(d, depth, 12, "mixed"):
            f = st.GridFunction.from_balls(fam, depth)
            result = st.heavy_cubes(fam, CONFIG, depth)
            assert (result.status == "early_exit") == (f.l1() > CONFIG.M)
            seen.add(result.status == "early_exit")
        assert seen == {True, False}

    @pytest.mark.parametrize(
        "d,depth,config,seeds",
        [
            (1, 10, CONFIG, range(12)),
            (2, 7, st.StoppingConfig(N=100, M=2), [0, 1, 2, 3]),
        ],
    )
    def test_heavy_found_passes_oracle(self, d, depth, config, seeds):
        found = 0
        for seed in seeds:
            rng = np.random.default_rng(seed)
            fam = st.random_family(d, rng, profile="peaked", config=config, grid_depth=depth)
            result = st.heavy_cubes(fam, config, depth)
            if result.status != "heavy_found":
                continue
            found += 1
            assert st.exhaustive_verify(fam, config, result)["ok"]
            assert result.checks["density_ok"] and result.checks["disjoint_ok"]
            for cube in result.heavy:
                lo, hi = cube_bounds(cube, d)
                assert result.f_masses[cube] > config.M * np.prod(hi - lo)
        assert found >= 2

    @pytest.mark.parametrize("d,depth", [(1, 10), (2, 7)])
    def test_generations_run_counts_generation_records(self, d, depth):
        statuses = set()
        for fam in families(d, depth, 8, "peaked"):
            result = st.heavy_cubes(fam, CONFIG, depth)
            if result.status in ("heavy_found", "exhausted"):
                statuses.add(result.status)
                assert result.checks["generations_run"] == len(result.trace["generations"])
        assert statuses

    @pytest.mark.parametrize("d,depth", [(1, 10), (2, 7)])
    def test_loop_checks_have_fixed_keys(self, d, depth):
        statuses = set()
        for fam in families(d, depth, 8, "peaked"):
            result = st.heavy_cubes(fam, CONFIG, depth)
            if result.status in ("heavy_found", "exhausted"):
                statuses.add(result.status)
                assert isinstance(result.checks["mass_law_violations"], list)
                assert isinstance(result.checks["coverage_ok"], bool)
        assert statuses

    @pytest.mark.parametrize(
        "d,depth,config,max_balls,seeds",
        [
            (1, 10, CONFIG, 64, range(6)),
            (2, 6, st.StoppingConfig(N=10, M=2), 6, range(12)),
            (3, 5, st.StoppingConfig(N=10, M=2), 4, range(5)),
        ],
        ids=["d1", "d2", "d3"],
    )
    def test_selected_system_matches_brute_force(self, d, depth, config, max_balls, seeds):
        """Group the balls by located system, build each f_i cell by cell and
        pick the system with the most mass on {f_i >= N / 2^d}."""
        systems = st.AdjacentSystems(d)
        compared = 0
        for seed in seeds:
            rng = np.random.default_rng(seed)
            fam = st.random_family(d, rng, max_balls, profile="peaked", config=config, grid_depth=depth)
            result = st.heavy_cubes(fam, config, depth)
            if result.status == "early_exit":
                continue
            grids = np.zeros((len(systems),) + (2**depth,) * d)
            for i in range(len(fam)):
                cube, _ = systems.locate(fam.centers[i], fam.radii[i])
                grids[cube.system][brute_cells(fam.centers[i], fam.radii[i], depth)] += fam.weights[i]
            thetas = [float(g[g >= config.N / len(systems)].sum() * 2.0 ** (-depth * d)) for g in grids]
            assert result.trace["selected_system"] == int(np.argmax(thetas))
            assert result.trace["theta"] == max(thetas)
            compared += 1
        assert compared >= 2

    @pytest.mark.parametrize("d,depth", [(1, 10), (2, 7)])
    def test_renders_each_ball_once_and_locates_no_ball_twice(self, d, depth, monkeypatch):
        fam = st.random_family(d, np.random.default_rng(1), profile="peaked", config=CONFIG, grid_depth=depth)
        balls = [(tuple(c), float(r)) for c, r in zip(fam.centers, fam.radii)]
        visible = [b for b in balls if st.grid_ball_volume(np.array(b[0]), b[1], depth, d) > 0]
        rendered, located = [], []
        cells_in_ball, locate = st._cells_in_ball, st.AdjacentSystems.locate

        def counted_cells(center, radius, *args):
            rendered.append((tuple(center), float(radius)))
            return cells_in_ball(center, radius, *args)

        def counted_locate(self, center, radius):
            located.append((tuple(center), float(radius)))
            return locate(self, center, radius)

        monkeypatch.setattr(st, "_cells_in_ball", counted_cells)
        monkeypatch.setattr(st.AdjacentSystems, "locate", counted_locate)
        result = st.heavy_cubes(fam, CONFIG, depth)
        assert result.status in ("heavy_found", "exhausted")
        assert sorted(rendered) == sorted(balls)
        assert sorted(located) == sorted(visible)

    def test_vacuous_without_high_mass(self):
        fam = st.BallFamily(np.array([[0.5, 0.5]]), np.array([0.2]), np.array([1.0]))
        result = st.heavy_cubes(fam, CONFIG, 6)
        assert result.status == "vacuous" and result.heavy == [] and result.trace["theta"] == 0.0


def ancestors(cube):
    """The cube's ancestors from level 0 down to the cube itself, by cell arithmetic."""
    return [
        st.SystemCube(cube.system, level, tuple(c >> (cube.level - level) for c in cube.cell))
        for level in range(cube.level + 1)
    ]


def stopping_rule(wmap, starts, threshold):
    """Weighted cubes whose chain sum from their start reaches the threshold at
    the cube and at no coarser cube; ``starts`` None means every level-0 cube,
    whose weight counts, and otherwise a start's own weight is left out."""
    out = []
    for cube in wmap:
        chain = ancestors(cube)
        at = [i for i, q in enumerate(chain) if (q in starts if starts is not None else q.level == 0)]
        if not at:
            continue
        sums = np.cumsum([wmap.get(q, 0.0) for q in chain[at[0] + (starts is not None):]])
        if sums.size and sums[-1] >= threshold and np.all(sums[:-1] < threshold):
            out.append(cube)
    return sorted(out, key=lambda c: (c.level, c.cell))


class TestGenerations:
    def test_records_match_brute_force_rule(self):
        """Rebuild the selected system's weight map ball by ball and check each
        generation's cubes, and that each lies strictly inside a light cube of the one before."""
        records = multi_generation_runs = 0
        for d, depth in [(1, 10), (2, 7), (3, 5)]:
            systems = st.AdjacentSystems(d)
            for fam in families(d, depth, 12, "peaked"):
                result = st.heavy_cubes(fam, CONFIG, depth)
                gens = result.trace["generations"]
                if not gens:
                    continue
                wmap = {}
                for c, r, w in zip(fam.centers, fam.radii, fam.weights):
                    if st.grid_ball_volume(c, r, depth, d) == 0.0:
                        continue
                    cube, _ = systems.locate(c, r)
                    if cube.system == result.trace["selected_system"]:
                        for rel in systems.related_cubes(r, cube):
                            wmap[rel] = wmap.get(rel, 0.0) + float(w)
                starts = None
                for record in gens:
                    cubes = sorted(record["heavy"] + record["light"], key=lambda c: (c.level, c.cell))
                    assert cubes == stopping_rule(wmap, starts, record["threshold"])
                    if starts is not None:
                        assert all(set(ancestors(cube)[:-1]) & starts for cube in cubes)
                    starts = set(record["light"])
                records += len(gens)
                multi_generation_runs += len(gens) > 1
        assert records >= 20 and multi_generation_runs >= 5

    def test_generation_cubes_on_hand_built_weights(self):
        """Generation 1: a reaches the threshold by itself, so its weighted
        descendants are not returned; b's grandchild reaches it through b's
        unweighted child. Below the starts a and b their own weights are left
        out: a's grandchild is the first to reach 3 (1 + 4), b's descendants
        reach at most 2, and neither start is returned again. c lies under no
        start of the last two calls."""
        cube = lambda system, level, x: st.SystemCube(system, level, (x,))
        a, b, c = cube(0, 1, 0), cube(0, 1, 1), cube(1, 2, 0)
        wmap = {
            a: 5.0, cube(0, 2, 0): 1.0, cube(0, 3, 0): 4.0,
            b: 1.0, cube(0, 3, 4): 2.0, cube(0, 3, 5): 1.0,
            c: 10.0,
        }
        systems = st.AdjacentSystems(1)
        assert cube(0, 2, 2) not in wmap
        assert st._generation_cubes(None, wmap, systems, 3.0) == [a, c, cube(0, 3, 4)]
        assert st._generation_cubes({a, b}, wmap, systems, 3.0) == [cube(0, 3, 0)]
        assert st._generation_cubes({b}, wmap, systems, 3.5) == []

    @pytest.mark.parametrize("seed", [1000, 1001, 1002])
    def test_recursion_descends_to_heavy_cubes(self, seed):
        """Seeded d = 2 families whose first generation has only light cubes:
        the later generations must descend below them to find heavy cubes."""
        fam = st.random_family(2, np.random.default_rng(seed), profile="mixed", config=CONFIG, grid_depth=9)
        result = st.heavy_cubes(fam, CONFIG, 9)
        assert result.status == "heavy_found"
        assert result.trace["generations"][0]["heavy"] == []
        assert st.exhaustive_verify(fam, CONFIG, result)["ok"]


class TestExhaustiveVerify:
    def test_vacuous_run_renders_nothing(self, monkeypatch):
        fam = st.BallFamily(np.array([[0.5, 0.5]]), np.array([0.2]), np.array([1.0]))
        result = st.heavy_cubes(fam, CONFIG, 6)
        assert result.status == "vacuous"
        rendered = []
        cells_in_ball = st._cells_in_ball

        def counted_cells(*args):
            rendered.append(args)
            return cells_in_ball(*args)

        monkeypatch.setattr(st, "_cells_in_ball", counted_cells)
        verdict = st.exhaustive_verify(fam, CONFIG, result)
        assert verdict == {"status": "vacuous", "ok": True, "failures": []}
        assert rendered == []

    @pytest.fixture(scope="class")
    def found(self):
        """A seeded ``heavy_found`` run with two heavy cubes, which the oracle passes."""
        fam = st.random_family(1, np.random.default_rng(6), profile="peaked", config=CONFIG, grid_depth=10)
        result = st.heavy_cubes(fam, CONFIG, 10)
        assert result.status == "heavy_found" and len(result.heavy) == 2
        assert st.exhaustive_verify(fam, CONFIG, result)["ok"]
        return fam, result

    @staticmethod
    def names(verdict):
        assert verdict["failures"] and verdict["ok"] is False
        return [failure[0] for failure in verdict["failures"]]

    @pytest.mark.parametrize("system", [-1, 2])
    def test_cube_of_no_system(self, found, system):
        fam, result = found
        bad = dataclasses.replace(result.heavy[0], system=system)
        tampered = dataclasses.replace(result, heavy=[bad, result.heavy[1]])
        verdict = st.exhaustive_verify(fam, CONFIG, tampered)
        assert ("identity", bad) in verdict["failures"]
        assert set(self.names(verdict)) <= {"identity", "retention"}

    def test_doubled_norm(self, found):
        fam, result = found
        cube = result.heavy[1]
        f_masses = {**result.f_masses, cube: 2.0 * result.f_masses[cube]}
        verdict = st.exhaustive_verify(fam, CONFIG, dataclasses.replace(result, f_masses=f_masses))
        assert self.names(verdict) == ["norm"]
        assert verdict["failures"][0][1] == cube and verdict["failures"][0][3] == f_masses[cube]

    def test_larger_density_target(self, found):
        fam, result = found
        verdict = st.exhaustive_verify(fam, dataclasses.replace(CONFIG, M=1e9), result)
        assert self.names(verdict) == ["density", "density"]
        assert [failure[1] for failure in verdict["failures"]] == result.heavy

    def test_larger_mass_constant(self, found):
        fam, result = found
        verdict = st.exhaustive_verify(fam, dataclasses.replace(CONFIG, c=1e6), result)
        assert self.names(verdict) == ["retention"]

    def test_repeated_cube(self, found):
        fam, result = found
        tampered = dataclasses.replace(result, heavy=result.heavy + [result.heavy[0]])
        assert self.names(st.exhaustive_verify(fam, CONFIG, tampered)) == ["disjoint"]

    @pytest.fixture(scope="class")
    def exhausted(self):
        """A seeded ``exhausted`` run of two generations, which the oracle passes."""
        fam = st.random_family(2, np.random.default_rng(30), profile="peaked", config=CONFIG, grid_depth=7)
        result = st.heavy_cubes(fam, CONFIG, 7)
        assert result.status == "exhausted" and [r["k"] for r in result.trace["generations"]] == [1, 2]
        assert st.exhaustive_verify(fam, CONFIG, result) == {"status": "exhausted", "ok": True, "failures": []}
        return fam, result

    @staticmethod
    def with_record(result, k, **changes):
        """``result`` with the entries of its generation-k record replaced by ``changes``."""
        gens = [dict(r, **changes) if r["k"] == k else r for r in result.trace["generations"]]
        return dataclasses.replace(result, trace={**result.trace, "generations": gens})

    def test_wrong_threshold(self, exhausted):
        fam, result = exhausted
        wrong = result.trace["generations"][1]["threshold"] + 1
        verdict = st.exhaustive_verify(fam, CONFIG, self.with_record(result, 2, threshold=wrong))
        assert self.names(verdict) == ["threshold"] and verdict["failures"][0] == ("threshold", 2, wrong)

    def test_generation_that_reached_the_stop(self, exhausted):
        fam, result = exhausted
        mass = result.trace["theta"] / 2.0  # exactly 2^-1 theta stops generation 1
        verdict = st.exhaustive_verify(fam, CONFIG, self.with_record(result, 1, heavy_high_mass=mass))
        assert self.names(verdict) == ["stop"] and verdict["failures"][0] == ("stop", 1, mass)

    def test_light_cube_labeled_heavy(self, exhausted):
        fam, result = exhausted
        cube = result.trace["generations"][0]["light"][0]
        verdict = st.exhaustive_verify(fam, CONFIG, self.with_record(result, 1, heavy=[cube], light=[]))
        assert self.names(verdict) == ["heavy"] and verdict["failures"][0][:3] == ("heavy", 1, cube)
        assert verdict["failures"][0][3] <= CONFIG.M * cube.volume(2)


class TestRandomPeakedFamilies:
    @pytest.mark.parametrize("d,depth", [(1, 10), (2, 7), (3, 5)])
    @given(seed=hs.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_generations_nest_and_oracle_passes(self, d, depth, seed):
        """Each generation's cubes lie strictly inside the light cubes of the one
        before, and the oracle passes every ``heavy_found`` and ``exhausted`` run."""
        fam = st.random_family(d, np.random.default_rng(seed), profile="peaked", config=CONFIG, grid_depth=depth)
        result = st.heavy_cubes(fam, CONFIG, depth)
        assert_nested(result.trace["generations"])
        if result.status in ("heavy_found", "exhausted"):
            assert st.exhaustive_verify(fam, CONFIG, result)["ok"]

    @pytest.mark.parametrize("seed", [26, 48, 53, 59, 83, 86, 99])
    def test_second_generation_nests_in_d1(self, seed):
        """Seeds whose d = 1 run reaches a second generation, so the nesting
        check above has records to compare in d = 1 as well."""
        config = st.StoppingConfig(N=12, M=1.5)
        fam = st.random_family(1, np.random.default_rng(seed), profile="peaked", config=config, grid_depth=10)
        result = st.heavy_cubes(fam, config, 10)
        assert len(result.trace["generations"]) >= 2
        assert_nested(result.trace["generations"])
        assert st.exhaustive_verify(fam, config, result)["ok"]


def assert_nested(gens):
    """Each generation's cubes lie strictly inside a light cube of the one before."""
    for before, record in zip(gens, gens[1:]):
        starts = set(before["light"])
        assert all(set(ancestors(cube)[:-1]) & starts for cube in record["heavy"] + record["light"])


class TestRandomFamily:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rejects_depth_below_five(self, d):
        with pytest.raises(ValueError, match="grid_depth must be >= 5"):
            st.random_family(d, np.random.default_rng(0), config=CONFIG, grid_depth=4)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_depth_five_works(self, d):
        for seed in range(5):
            fam = st.random_family(d, np.random.default_rng(seed), config=CONFIG, grid_depth=5)
            assert fam.d == d and np.all(fam.radii >= 4.0 * 2.0**-5)


class TestStoppingConfig:
    @pytest.mark.parametrize("param", ["N", "M", "gamma", "c", "A"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, param, bad):
        with pytest.raises(st.ConfigurationError, match="finite"):
            st.StoppingConfig(**{"N": 40.0, "M": 2.0, param: bad})

    @pytest.mark.parametrize("gamma,M,c,A", [(1, 2.0, 1.0, 1.0), (2, 1.5, 0.5, 1.2)])
    def test_guarantee_bound(self, gamma, M, c, A):
        bound = A ** ((gamma + 1) ** 2) * M ** (gamma + 2) / c
        with pytest.raises(st.ConfigurationError):
            st.StoppingConfig(N=bound, M=M, gamma=gamma, c=c, A=A, guarantee=True)
        with pytest.raises(st.ConfigurationError):
            st.StoppingConfig(N=0.5 * bound, M=M, gamma=gamma, c=c, A=A, guarantee=True)
        st.StoppingConfig(N=bound * (1 + 1e-9), M=M, gamma=gamma, c=c, A=A, guarantee=True)
        st.StoppingConfig(N=0.5 * bound, M=M, gamma=gamma, c=c, A=A)

    @pytest.mark.parametrize("weight", [1.0, 1000.0])  # 1000 would take the early exit
    def test_guarantee_run_needs_recommended_A(self, weight):
        fam = st.BallFamily(np.array([[0.5, 0.5]]), np.array([0.2]), np.array([weight]))
        config = st.StoppingConfig(N=1e6, M=2, A=2.0, guarantee=True)
        assert config.A < st.recommended_A(2, config.gamma)
        with pytest.raises(st.ConfigurationError):
            st.heavy_cubes(fam, config, 5)

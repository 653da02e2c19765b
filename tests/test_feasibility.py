import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metagame import feasibility, protocol
from metagame.errors import InfeasibleTargetError, ValidationError
from metagame.model import (
    MetaAction,
    MetaProfile,
    Population,
    average_utility,
    llm_utility,
)
from metagame.feasibility import (
    RECOMBINE_TOL,
    certificate_from_punishment,
    check_strict_ir,
    decompose_target,
    minmax,
    payoff_vertices,
)
from metagame.oneshot import best_response
from metagame.protocol import best_pure_punishment
from metagame.scenarios import (
    blame_cycle,
    heist_punishment,
    make_scenario,
    scenario_population,
)
from metagame.sim import estimate_deviation_gain

from oracles import random_game, random_population


@pytest.fixture(scope="module")
def pd():
    return make_scenario("pd", X=-2, Y=-4, Z=-5)


@pytest.fixture(scope="module")
def pd_pop():
    return scenario_population("pd")


@pytest.fixture(scope="module")
def pd_vertices(pd, pd_pop):
    return payoff_vertices(pd, pd_pop)


@pytest.fixture(scope="module")
def heist():
    return make_scenario("heist")


@pytest.fixture(scope="module")
def heist_pop():
    return scenario_population("heist")


@pytest.fixture(scope="module")
def heist_vertices(heist, heist_pop):
    return payoff_vertices(heist, heist_pop)


def test_pd_vertex_set(pd_vertices):
    assert len(pd_vertices) == 16
    match = [
        v for v in pd_vertices.vertices if v.profiles == (("C", "C"), ("D", "D"))
    ]
    assert match[0].payoff == pytest.approx((-4.14, -0.08), abs=1e-12)


def test_single_llm_vertices(pd):
    pop = Population(((1.0,), (1.0,)))
    verts = payoff_vertices(pd, pop)
    assert len(verts) == 4
    for v in verts.vertices:
        assert v.payoff[0] == pytest.approx(sum(pd.payoff(v.profiles[0])), abs=1e-12)


def test_heist_vertices_include_clean_outcome(heist, heist_pop):
    verts = payoff_vertices(heist, heist_pop)
    assert len(verts) == 512
    cycle = blame_cycle()
    match = [v for v in verts.vertices if v.profiles == (cycle, cycle, cycle)]
    assert match[0].payoff == (0.0, 0.0, 0.0)


def test_decompose_vertex_target_is_single_profile(pd_vertices):
    vtx = pd_vertices.vertices[0]
    dec = decompose_target(pd_vertices, vtx.payoff)
    assert dec.weights == (1.0,)
    assert dec.payoffs == (vtx.payoff,)


def test_decompose_heist_zero_is_blame_cycle(heist, heist_pop):
    verts = payoff_vertices(heist, heist_pop)
    dec = decompose_target(verts, (0.0, 0.0, 0.0))
    assert dec.support_size == 1
    assert dec.weights == (1.0,)
    (profile,) = dec.profiles
    for action in profile.actions:
        assert action.outcomes[0][0].pure_profile == blame_cycle()


def test_decompose_midpoint_recombines(pd_vertices):
    a, b = pd_vertices.vertices[2], pd_vertices.vertices[9]
    target = tuple(0.5 * x + 0.5 * y for x, y in zip(a.payoff, b.payoff))
    dec = decompose_target(pd_vertices, target)
    assert dec.support_size <= 3
    combo = np.array(dec.payoffs).T @ np.array(dec.weights)
    assert combo == pytest.approx(target, abs=1e-9)


def test_decompose_random_hull_points_support_bound():
    rng = random.Random(31)
    for _ in range(10):
        game = random_game(rng, roles=2, n_actions=2)
        pop = random_population(rng, roles=2, llms=3)
        verts = payoff_vertices(game, pop)
        idx = rng.sample(range(len(verts)), 6)
        raw = [rng.random() + 0.05 for _ in idx]
        total = sum(raw)
        target = np.zeros(3)
        for i, w in zip(idx, raw):
            target += (w / total) * np.array(verts.vertices[i].payoff)
        dec = decompose_target(verts, tuple(target))
        assert dec.support_size <= 4
        combo = np.array(dec.payoffs).T @ np.array(dec.weights)
        assert combo == pytest.approx(tuple(target), abs=1e-9)


def test_decompose_near_the_hull_boundary(pd_vertices):
    # Within 1e-9 of the PD edge from (-3.6, -0.4) to (-3.87, -0.23): the LP
    # meets HiGHS's tolerance while its clipped weights miss by 3.4e-8.
    target = (-3.68590909, -0.34590909)
    try:
        dec = decompose_target(pd_vertices, target)
    except InfeasibleTargetError:
        return
    combo = np.array(dec.payoffs).T @ np.array(dec.weights)
    assert np.max(np.abs(combo - np.array(target))) <= RECOMBINE_TOL


@settings(max_examples=80, deadline=None)
@given(
    scenario=st.sampled_from(["pd", "heist"]),
    seed=st.integers(0, 2**32 - 1),
    push=st.sampled_from([0.0, 1e-10, 1e-8, 1e-3, 0.5, 3.0]),
)
def test_decompose_recombines_or_raises(pd_vertices, heist_vertices, scenario, seed, push):
    # A seeded mixture of a few vertices, pushed `push` along a random
    # direction (often out of the hull): the decomposition recombines within
    # RECOMBINE_TOL, or it raises with a separating direction; a target that
    # is a mixture (push 0) separates by no positive gap.
    verts = pd_vertices if scenario == "pd" else heist_vertices
    V = verts.matrix
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(V), size=rng.integers(1, 5), replace=False)
    direction = rng.normal(size=V.shape[1])
    target = rng.dirichlet(np.ones(len(idx))) @ V[idx]
    target = target + push * direction / np.linalg.norm(direction)
    try:
        dec = decompose_target(verts, tuple(target))
    except InfeasibleTargetError as err:
        d = np.array(err.direction)
        assert np.max(np.abs(d)) <= 1.0 + 1e-9
        assert err.gap == pytest.approx(d @ target - (V @ d).max(), abs=1e-9)
        assert push > 0.0 or err.gap <= 1e-9
        return
    weights = np.array(dec.weights)
    assert weights.min() >= 0.0 and abs(weights.sum() - 1.0) <= 1e-12
    combo = np.array(dec.payoffs).T @ weights
    assert np.max(np.abs(combo - target)) <= RECOMBINE_TOL


def test_infeasible_target_gets_separating_direction(pd_vertices):
    with pytest.raises(InfeasibleTargetError) as exc:
        decompose_target(pd_vertices, (1.0, 1.0))
    err = exc.value
    V = pd_vertices.matrix
    d = np.array(err.direction)
    assert err.gap > 0
    assert d @ np.array((1.0, 1.0)) > (V @ d).max() + err.gap / 2


def test_minmax_single_llm(pd):
    pop = Population(((1.0,), (1.0,)))
    cert = minmax(pd, pop, 0)
    assert cert.upper_bound == pytest.approx(-4.0, abs=1e-12)
    assert cert.lower_bound == cert.upper_bound
    assert cert.best_response == ("C", "C")


def test_pd_minmax_exact(pd, pd_pop):
    cert = minmax(pd, pd_pop, 0)
    # punishing with all-defect forces the large advisor down to 2 * 0.9 * (0.9X + 0.1Z)
    assert cert.upper_bound <= -4.14 + 1e-9
    assert cert.upper_bound - cert.lower_bound <= 1e-6
    assert cert.best_response == ("C", "C")
    # pure punishments and two-point mixtures confirm all-defect minimizes
    profiles = list(pd.profiles())
    values = {}
    for prof in profiles:
        punished = MetaProfile.from_pure([("C", "C"), prof])
        values[prof] = max(
            llm_utility(pd, pd_pop, MetaProfile.from_pure([alt, prof]))[0]
            for alt in profiles
        )
    assert min(values, key=values.get) == ("D", "D")
    assert cert.upper_bound <= min(values.values()) + 1e-9
    for pa, pb in itertools.combinations(profiles, 2):
        for t in range(101):
            w = t / 100.0
            mix = MetaAction(
                tuple(
                    x
                    for x in (
                        (MetaProfile.from_pure([pa]).actions[0].outcomes[0][0], w),
                        (MetaProfile.from_pure([pb]).actions[0].outcomes[0][0], 1.0 - w),
                    )
                    if x[1] > 0
                )
            )
            value = max(
                llm_utility(
                    pd, pd_pop, MetaProfile((MetaAction.from_pure(alt), mix))
                )[0]
                for alt in profiles
            )
            assert cert.upper_bound <= value + 1e-9


def test_heist_named_punishment_certifies(heist, heist_pop):
    cert = certificate_from_punishment(heist, heist_pop, 0, heist_punishment(0))
    assert cert.upper_bound <= -0.5872 + 1e-9
    assert cert.lower_bound <= cert.upper_bound
    # re-evaluating the stored punishment reproduces the bound
    again = certificate_from_punishment(
        heist, heist_pop, 0, cert.punishment, lower_bound=cert.lower_bound
    )
    assert again.upper_bound == pytest.approx(cert.upper_bound, abs=1e-9)


def test_heist_alternating_minmax_brackets(heist, heist_pop):
    for j in range(3):
        cert = minmax(heist, heist_pop, j, starts=6, seed=j)
        assert cert.lower_bound <= cert.upper_bound
        assert cert.upper_bound <= -0.5872 + 1e-9


def test_strict_ir_reports(heist, heist_pop):
    certs = [
        certificate_from_punishment(heist, heist_pop, j, heist_punishment(j))
        for j in range(3)
    ]
    report = check_strict_ir((0.0, 0.0, 0.0), certs)
    assert report.strict
    assert all(m > 0.5 for m in report.margins)
    boundary = check_strict_ir(tuple(c.upper_bound for c in certs), certs)
    assert not boundary.strict


def grid_minmax_value(game, pop, j, resolution=200):
    """Brute-force lattice search over the punisher's full mixture simplex."""
    profiles = list(game.profiles())
    n = len(profiles)
    opp = 1 - j
    C = np.empty((n, n))
    for b, bp in enumerate(profiles):
        for a, ap in enumerate(profiles):
            pair = [None, None]
            pair[j] = ap
            pair[opp] = bp
            C[b, a] = llm_utility(game, pop, MetaProfile.from_pure(pair))[j]
    best = np.inf
    r = np.arange(resolution + 1, dtype=np.int32)
    for i in range(resolution + 1):
        jj, kk = np.meshgrid(r, r, indexing="ij")
        mask = jj + kk <= resolution - i
        y = np.empty((int(mask.sum()), 4))
        y[:, 0] = i
        y[:, 1] = jj[mask]
        y[:, 2] = kk[mask]
        y[:, 3] = resolution - i - jj[mask] - kk[mask]
        y /= resolution
        values = (y @ C).max(axis=1)
        best = min(best, float(values.min()))
    return best


def test_lp_minmax_matches_grid_oracle_sample():
    # payoffs are scaled so the lattice resolution alone bounds the gap:
    # rounding the optimum to the 1/200 lattice moves the value by less than
    # (|dy|_1 / 2) * spread(C) <= 0.01 * 0.008 < 1e-4
    rng = random.Random(5)
    for _ in range(5):
        game = random_game(rng, roles=2, n_actions=2, lo=-0.002, hi=0.002)
        pop = random_population(rng, roles=2, llms=2)
        j = rng.randrange(2)
        cert = minmax(game, pop, j)
        grid = grid_minmax_value(game, pop, j)
        assert abs(cert.lower_bound - grid) <= 1e-4
        assert cert.lower_bound <= grid + 1e-9


def test_check_strict_ir_validates_order(heist, heist_pop):
    certs = [
        certificate_from_punishment(heist, heist_pop, j, heist_punishment(j))
        for j in range(3)
    ]
    with pytest.raises(ValidationError):
        check_strict_ir((0.0, 0.0, 0.0), certs[::-1])


def _no_enumeration(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("enumerated before checking the advisor index")

    monkeypatch.setattr(feasibility, "_payoff_tensor", fail)
    monkeypatch.setattr(protocol, "_payoff_tensor", fail)


@pytest.mark.parametrize(
    "scenario, pop",
    [
        ("pd", Population(((1.0,), (1.0,)))),
        ("pd", scenario_population("pd")),
        ("heist", scenario_population("heist")),
    ],
)
def test_advisor_index_out_of_range_is_rejected_first(monkeypatch, scenario, pop):
    game, k = make_scenario(scenario), pop.llm_count
    _no_enumeration(monkeypatch)
    for j in (-1, k, k + 3):
        calls = [
            lambda: minmax(game, pop, j),
            lambda: certificate_from_punishment(game, pop, j, (None,) * k),
            lambda: best_pure_punishment(game, pop, j),
            # Nothing past the index check takes these placeholder inputs.
            lambda: best_response(game, pop, (None,) * k, j),
            lambda: average_utility(game, pop, None, j),
            lambda: estimate_deviation_gain(game, pop, None, j, "heavy", ()),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match=rf"must lie in \[0, {k}\)"):
                call()


@pytest.mark.parametrize("starts", [0, -2])
def test_minmax_needs_a_start(monkeypatch, heist, heist_pop, starts):
    _no_enumeration(monkeypatch)
    with pytest.raises(ValidationError, match="starts"):
        minmax(heist, heist_pop, 0, starts=starts)

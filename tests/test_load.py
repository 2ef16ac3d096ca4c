"""Open-loop workload generation: determinism, independence, the knee."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.node import star
from repro.fleet.isolate import isolated_run
from repro.load import (LATENCY_BOUNDS, LoadGen, LoadSpecError, MIXES,
                        ParetoOnOffArrivals, PoissonArrivals, jain_fairness,
                        make_arrivals, make_mix, make_workload, run_load)
from repro.sim import Environment

# -- arrival processes ---------------------------------------------------------

_rates = st.sampled_from([500.0, 4000.0, 25000.0, 200000.0])


@given(seed=st.integers(0, 2 ** 31), rate=_rates)
@settings(max_examples=30, deadline=None)
def test_poisson_schedule_is_pure_function_of_seed_and_rate(seed, rate):
    a = PoissonArrivals(seed, rate)
    b = PoissonArrivals(seed, rate)
    times = a.times(200)
    assert times == b.times(200) == a.times(200)
    assert all(isinstance(t, int) for t in times)
    assert all(t1 < t2 for t1, t2 in zip(times, times[1:]))


@given(seed=st.integers(0, 2 ** 31), rate=_rates)
@settings(max_examples=30, deadline=None)
def test_pareto_schedule_is_pure_function_of_seed_and_rate(seed, rate):
    a = ParetoOnOffArrivals(seed, rate)
    times = a.times(200)
    assert times == ParetoOnOffArrivals(seed, rate).times(200)
    assert all(isinstance(t, int) for t in times)
    assert all(t1 <= t2 for t1, t2 in zip(times, times[1:]))


@given(seed_a=st.integers(0, 1000), seed_b=st.integers(0, 1000),
       rate=_rates)
@settings(max_examples=30, deadline=None)
def test_interleaved_generators_do_not_perturb_each_other(seed_a, seed_b,
                                                          rate):
    """Drawing two generators' streams alternately yields exactly the
    streams each would produce alone — no shared RNG state."""
    solo_a = PoissonArrivals(seed_a, rate).times(100)
    solo_b = ParetoOnOffArrivals(seed_b, rate).times(100)
    ia = PoissonArrivals(seed_a, rate).iter_times()
    ib = ParetoOnOffArrivals(seed_b, rate).iter_times()
    drawn_a, drawn_b = [], []
    for _ in range(100):
        drawn_a.append(next(ia))
        drawn_b.append(next(ib))
    assert drawn_a == solo_a
    assert drawn_b == solo_b


def test_poisson_empirical_rate_is_close():
    rate = 10000.0
    times = PoissonArrivals(7, rate).times(4000)
    mean_gap_ns = (times[-1] - times[0]) / (len(times) - 1)
    assert 0.9e9 / rate < mean_gap_ns < 1.1e9 / rate


def test_pareto_long_run_rate_is_close():
    rate = 10000.0
    times = ParetoOnOffArrivals(7, rate).times(6000)
    mean_gap_ns = (times[-1] - times[0]) / (len(times) - 1)
    # Heavy-tailed: the sample mean converges slowly; a loose band.
    assert 0.5e9 / rate < mean_gap_ns < 2.0e9 / rate


def test_make_arrivals_validates():
    assert make_arrivals({"process": "poisson"}, 1, 100.0).kind == "poisson"
    p = make_arrivals({"process": "pareto_on_off", "alpha": 1.7}, 1, 100.0)
    assert p.alpha == 1.7
    with pytest.raises(LoadSpecError):
        make_arrivals({"process": "uniform"}, 1, 100.0)
    with pytest.raises(LoadSpecError):
        make_arrivals({"process": "poisson"}, 1, -5.0)
    with pytest.raises(LoadSpecError):
        make_arrivals({"process": "pareto_on_off", "bogus": 1}, 1, 100.0)


# -- mixes and schedules -------------------------------------------------------


@given(seed=st.integers(0, 2 ** 31), name=st.sampled_from(sorted(MIXES)))
@settings(max_examples=30, deadline=None)
def test_mix_sequence_is_pure_function(seed, name):
    mix = make_mix(name)
    seq = mix.sequence(seed, 100)
    assert seq == make_mix(name).sequence(seed, 100)
    assert all(c in mix.choices for c in seq)


@given(seed=st.integers(0, 2 ** 31))
@settings(max_examples=20, deadline=None)
def test_loadgen_schedule_identical_across_draws(seed):
    def build():
        return LoadGen(PoissonArrivals(seed, 8000.0), make_mix("rw4k"),
                       seed, 60, 3)
    sched = build().schedule()
    assert sched == build().schedule()
    assert [s.client for s in sched] == [i % 3 for i in range(60)]


def test_mix_validation():
    with pytest.raises(LoadSpecError):
        make_mix("nope")
    with pytest.raises(LoadSpecError):
        make_mix({"choices": [{"op": "fly", "size": 1, "weight": 1}]})
    custom = make_mix({"name": "c", "choices": [
        {"op": "read", "size": 8192, "weight": 3},
        {"op": "stat", "size": 0, "weight": 1}]})
    assert {c.op for c in custom.choices} == {"read", "stat"}


def test_latency_ladder_is_sorted_and_wide():
    assert list(LATENCY_BOUNDS) == sorted(LATENCY_BOUNDS)
    assert LATENCY_BOUNDS[0] == 1000          # 1 us
    assert LATENCY_BOUNDS[-1] == 50 * 10 ** 9  # 50 s


def test_jain_fairness():
    assert jain_fairness([10, 10, 10, 10]) == 1.0
    assert jain_fairness([]) == 1.0
    assert jain_fairness([0, 0]) == 1.0
    assert abs(jain_fairness([40, 0, 0, 0]) - 0.25) < 1e-12


# -- the driver on a live cluster ----------------------------------------------


def _run_orfa(rate: float, n_ops: int = 120, mode: str = "open",
              seed: int = 1, observe: bool = True, idle_ns: int = 0,
              starts: list | None = None):
    """One ORFA load run on a 6-node star.  ``idle_ns`` idles the clock
    between set-up and ``run_load``; ``starts`` collects the clock at
    the ``run_load`` call."""
    with isolated_run(observe=observe):
        env = Environment()
        nodes, _switch = star(env, 6)
        wl = make_workload({"kind": "orfa", "api": "mx"}, env,
                           nodes[0], nodes[1:5])
        if idle_ns:
            env.run(until=env.now + idle_ns)
        if starts is not None:
            starts.append(env.now)
        gen = LoadGen(PoissonArrivals(seed, rate), make_mix("read4k"),
                      seed, n_ops, 4)
        return run_load(env, wl, gen, mode=mode)


def test_open_loop_saturation_raises_tail_latency():
    light = _run_orfa(4000.0)
    heavy = _run_orfa(64000.0)
    assert light.achieved_ops == heavy.achieved_ops == 120
    # The knee: the saturated run's p99 is queue wait, not service time.
    assert heavy.p99_ns >= 2 * light.p99_ns
    assert heavy.p99_ns >= heavy.p50_ns >= light.p50_ns
    # Saturated: achieved rate falls measurably short of offered.
    assert heavy.achieved_rate_ops_s < 0.95 * 64000.0
    assert light.achieved_rate_ops_s > 0.9 * 4000.0


def test_open_loop_results_are_deterministic():
    a, b = _run_orfa(16000.0), _run_orfa(16000.0)
    assert a == b


def test_open_loop_schedule_counts_from_run_start():
    """Set-up advances the clock before ``run_load``; the schedule must
    start there, so no op's latency carries set-up time and idling
    longer before the run shifts nothing."""
    idle_ns = 5_000_000
    starts = []
    base = _run_orfa(4000.0, starts=starts)
    later = _run_orfa(4000.0, idle_ns=idle_ns, starts=starts)
    assert 0 < starts[0] < starts[1]
    assert later.p99_ns < idle_ns
    assert later == base


def test_run_load_without_metrics_registry():
    observed = _run_orfa(16000.0)
    bare = _run_orfa(16000.0, observe=False)
    assert bare.p50_ns > 0
    assert ((bare.p50_ns, bare.p95_ns, bare.p99_ns)
            == (observed.p50_ns, observed.p95_ns, observed.p99_ns))
    assert bare == observed


def test_closed_loop_measures_service_time():
    closed = _run_orfa(64000.0, mode="closed")
    open_ = _run_orfa(64000.0, mode="open")
    assert closed.achieved_ops == 120
    # A closed loop cannot be pushed past saturation: its latency stays
    # at service time while the open loop's tail grows with the queue.
    assert closed.p99_ns <= open_.p99_ns
    assert closed.mean_ns < open_.mean_ns


def test_per_client_fairness_is_high_on_symmetric_star():
    res = _run_orfa(16000.0)
    assert res.fairness > 0.99
    assert sum(res.per_client_ops) == res.achieved_ops


def test_rr_and_nbd_adapters_run():
    for spec, mix in [({"kind": "nbd", "api": "mx"}, "rw4k"),
                      ({"kind": "rr", "api": "mx"}, "rr1k"),
                      ({"kind": "rr", "api": "tcp"}, "rr1k")]:
        with isolated_run(observe=True):
            env = Environment()
            nodes, _switch = star(env, 4)
            wl = make_workload(spec, env, nodes[0], nodes[1:3])
            gen = LoadGen(PoissonArrivals(2, 8000.0), make_mix(mix),
                          2, 20, 2)
            res = run_load(env, wl, gen)
            assert res.achieved_ops == 20
            assert res.failed_ops == 0
            assert res.p50_ns > 0


def test_workload_validation():
    env = Environment()
    nodes, _switch = star(env, 3)
    with pytest.raises(LoadSpecError):
        make_workload({"kind": "ftp"}, env, nodes[0], nodes[1:])
    with pytest.raises(LoadSpecError):
        make_workload({"kind": "rr", "api": "ib"}, env, nodes[0], nodes[1:])
    with pytest.raises(LoadSpecError):
        make_workload({"kind": "orfa", "api": "mx", "bogus": 1},
                      env, nodes[0], nodes[1:])

import inspect
import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covtomo.delay_cov import build_covariance_matrix
from covtomo.errors import ConfigError
from covtomo.model import CovarianceMatrix
from covtomo import scenarios
from covtomo.scenarios import (
    _cov_summary,
    _mean_stderr,
    _sum_in_order,
    parse_config,
    run_dynamic_scenario,
    run_scenario,
)
from covtomo.simulator import SessionDraws, SimulatorConfig, truth_link_range

from treegen import log_from_dicts

# jitter and congestion noise within the timestamp bound at 150 hosts, past
# it once the probe load counts 750
HEAVY = {"n_hosts": 150, "link_delay_var_ms2": [1e23, 1e23], "pair_interval_us": 1000}


@st.composite
def symmetric_matrices(draw):
    """Symmetric matrices of 2 to 12 receivers whose off-diagonal entries
    mix ties, signs and magnitudes, as estimated covariances do. None is
    -0.0, which the kernel never gives (see below): on a tie of 0.0 and
    -0.0, numpy's min and Python's may pick either."""
    n = draw(st.integers(2, 12))
    floats = st.one_of(
        st.sampled_from([0.0, 1.0, -1.0, 0.1, 1e-12]),
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False).map(lambda v: v + 0.0),
    )
    values = np.array(draw(st.lists(floats, min_size=n * n, max_size=n * n))).reshape(n, n)
    values = np.triu(values) + np.triu(values, 1).T
    return CovarianceMatrix(tuple(f"r{i}" for i in range(n)), values)


def sum_left_to_right(values) -> float:
    acc = 0.0
    for x in values:
        acc += x
    return acc


@settings(max_examples=300)
@given(symmetric_matrices())
def test_cov_summary_equals_list_min_max_and_sum(cov):
    # the mean adds left to right, as no compensated sum does
    off = cov.values[np.triu_indices(len(cov.receivers), 1)].tolist()
    summary = _cov_summary(cov)
    mean = sum_left_to_right(off) / len(off)
    assert summary == {"min_offdiag": min(off), "max_offdiag": max(off), "mean_offdiag": mean}
    assert all(type(v) is float for v in summary.values())
    assert [v.hex() for v in summary.values()] == [min(off).hex(), max(off).hex(), mean.hex()]


@settings(max_examples=300)
@given(st.lists(st.floats(-1e18, 1e18).map(lambda v: v + 0.0) | st.just(-0.0), min_size=1, max_size=40))
def test_sums_add_left_to_right(values):
    n = len(values)
    mean = sum_left_to_right(values) / n
    var = sum_left_to_right([(v - mean) ** 2 for v in values]) / (n - 1) if n > 1 else None
    assert _mean_stderr(values) == (mean, math.sqrt(var / n) if n > 1 else 0.0)
    assert _sum_in_order(np.array(values)).hex() == sum_left_to_right(values).hex()


def test_sums_are_not_compensated():
    # 3.12's sum gives 1.0 and 0.5 here; left to right, the 1.0 is lost
    assert _sum_in_order([1e16, 1.0, -1e16]) == 0.0
    assert _mean_stderr([1e16, 1.0, -1e16, 0.0])[0] == 0.0
    assert math.copysign(1.0, _sum_in_order([-0.0, -0.0])) == 1.0


DYNAMIC = {
    "simulator": {"n_hosts": 20, "n_routers": 6, "n_pairs": 200},
    "recovery": {"rho_ms2": 0.25},
    "seeds": [1, 2],
    "joins": {"batches": [3, 3, 3]},
}


STATIC = {key: value for key, value in DYNAMIC.items() if key != "joins"}


def test_dynamic_run_draws_on_one_worker_and_joins_it(monkeypatch):
    calls = []
    draw_rows = SessionDraws.draw_rows

    def recorded(self, rows):
        calls.append((threading.get_ident(), self.drawn, rows))
        draw_rows(self, rows)

    before = threading.active_count()
    want = run_dynamic_scenario(parse_config(DYNAMIC))
    assert threading.active_count() == before
    monkeypatch.setattr(SessionDraws, "draw_rows", recorded)
    assert run_dynamic_scenario(parse_config(DYNAMIC)) == want
    assert threading.active_count() == before
    # per seed, the static session's head rows on the worker and the rest
    # here, then each join session's rows whole on the same worker, and
    # none left to draw here
    here = threading.get_ident()
    workers = {ident for ident, _, _ in calls if ident != here}
    fewest, _ = truth_link_range(SimulatorConfig(**DYNAMIC["simulator"]))
    assert len(workers) == 1 and len(calls) == 16
    for seed_calls in (calls[:8], calls[8:]):
        (head, rest, *joins) = seed_calls
        assert head[0] != here and head[1:] == (0, fewest)
        assert rest[0] == here and rest[1] == fewest
        for (ident, drawn, rows), (then_ident, then_drawn, then_rows) in zip(joins[::2], joins[1::2]):
            assert ident != here and drawn == 0 and rows > fewest
            assert then_ident == here and then_drawn == then_rows == rows


def test_static_run_draws_the_head_on_one_worker_and_joins_it(monkeypatch):
    idents = []
    draw_rows = SessionDraws.draw_rows

    def recorded(self, rows):
        idents.append(threading.get_ident())
        draw_rows(self, rows)

    before = threading.active_count()
    want = run_scenario(parse_config(STATIC))
    assert threading.active_count() == before
    monkeypatch.setattr(SessionDraws, "draw_rows", recorded)
    assert run_scenario(parse_config(STATIC)) == want
    assert threading.active_count() == before
    # per seed, the head on the worker, then the rest here
    here = threading.get_ident()
    assert len(idents) == 4 and idents[1] == idents[3] == here
    assert idents[0] == idents[2] != here


@pytest.mark.parametrize("where", ["generate_topology", "draw_rows"])
def test_static_run_joins_its_worker_when_a_pass_raises(monkeypatch, where):
    # generate_topology fails while the head draw is still running on the
    # worker, or the head draw itself fails there
    failure = RuntimeError("pass failed")
    draw_rows = SessionDraws.draw_rows
    done = []
    if where == "generate_topology":

        def slow(self, rows):
            time.sleep(0.2)
            draw_rows(self, rows)
            done.append(rows)

        def failing(sim):
            raise failure

        monkeypatch.setattr(SessionDraws, "draw_rows", slow)
        monkeypatch.setattr(scenarios, "generate_topology", failing)
    else:

        def failing(self, rows):
            raise failure

        monkeypatch.setattr(SessionDraws, "draw_rows", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as err:
        run_scenario(parse_config(STATIC))
    assert err.value is failure
    assert threading.active_count() == before
    assert len(done) == (where == "generate_topology")


@pytest.mark.parametrize("where", ["attach_peer", "draw"])
def test_dynamic_run_joins_its_worker_when_a_batch_raises(monkeypatch, where):
    # the second batch fails, on this thread or on the worker, while the
    # third batch's draw may be in flight
    failure = RuntimeError("batch failed")
    calls = []
    if where == "attach_peer":
        attach = scenarios.attach_peer

        def failing(*args):
            calls.append(args)
            if len(calls) == 4:
                raise failure
            return attach(*args)

        monkeypatch.setattr(scenarios, "attach_peer", failing)
    else:
        draw_rows = SessionDraws.draw_rows

        def failing(self, rows):
            # the second join session's stream
            if self.stream == 2:
                raise failure
            draw_rows(self, rows)

        monkeypatch.setattr(SessionDraws, "draw_rows", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as err:
        run_dynamic_scenario(parse_config(DYNAMIC))
    assert err.value is failure
    assert threading.active_count() == before


@pytest.mark.parametrize("run, config", [(run_scenario, STATIC), (run_dynamic_scenario, DYNAMIC)], ids=["static", "dynamic"])
def test_worker_runs_only_draw_rows(monkeypatch, run, config):
    # every covtomo function bound in the scenarios module, found as the
    # benchmark's tracer finds them, which keeps one span stack for all
    # threads: each runs on this thread, and the worker only draws normals
    threads = []

    def recorded(name, fn):
        def call(*args, **kwargs):
            threads.append((name, threading.get_ident()))
            return fn(*args, **kwargs)

        return call

    for name, fn in list(vars(scenarios).items()):
        if inspect.isfunction(fn) and fn.__module__.startswith("covtomo."):
            monkeypatch.setattr(scenarios, name, recorded(name, fn))
    monkeypatch.setattr(SessionDraws, "draw_rows", recorded("draw_rows", SessionDraws.draw_rows))
    run(parse_config(config))
    here = threading.get_ident()
    on_worker = {name for name, ident in threads if ident != here}
    assert on_worker == {"draw_rows"}
    assert {"_run_once", "generate_topology", "simulate_session"} <= {name for name, _ in threads}


def test_kernel_zeros_are_positive():
    # integer numerators divide to +0.0: a constant receiver's covariances,
    # and a pair whose numerator cancels
    log = log_from_dicts(
        {k: 1000 * k for k in range(4)},
        {"a": {k: 1000 * k + 7 for k in range(4)}, "b": {0: 10, 1: 1020, 2: 2010, 3: 3020}, "c": {0: 5, 1: 1005, 2: 2015, 3: 3015}},
    )
    values = build_covariance_matrix(log, ["a", "b", "c"]).values
    zeros = values == 0
    assert zeros.sum() >= 6 and not np.signbit(values[zeros]).any()


def test_join_sessions_are_bounded_with_every_joined_host():
    SimulatorConfig(**HEAVY)
    with pytest.raises(ConfigError, match="delays too large"):
        SimulatorConfig(**dict(HEAVY, n_hosts=750))
    config = {"simulator": HEAVY, "recovery": {"rho_ms2": 0.25}, "seeds": [1]}
    parse_config(config)
    with pytest.raises(ConfigError, match=r"^joins: delays too large: a timestamp could reach 5.21e\+18 us"):
        parse_config(dict(config, joins={"batches": [50] * 12}))

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covtomo.delay_cov import build_covariance_matrix
from covtomo.errors import ConfigError
from covtomo.model import CovarianceMatrix, MeasurementLog
from covtomo.scenarios import _cov_summary, parse_config
from covtomo.simulator import SimulatorConfig

# jitter and congestion noise within the timestamp bound at 150 hosts, past
# it once the probe load counts 750
HEAVY = {"n_hosts": 150, "link_delay_var_ms2": [1e20, 1e20], "bandwidth_bps": 3000}


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


@settings(max_examples=300)
@given(symmetric_matrices())
def test_cov_summary_equals_list_min_max_and_sum(cov):
    off = cov.values[np.triu_indices(len(cov.receivers), 1)].tolist()
    summary = _cov_summary(cov)
    assert summary == {"min_offdiag": min(off), "max_offdiag": max(off), "mean_offdiag": sum(off) / len(off)}
    assert all(type(v) is float for v in summary.values())
    assert [v.hex() for v in summary.values()] == [min(off).hex(), max(off).hex(), (sum(off) / len(off)).hex()]


def test_kernel_zeros_are_positive():
    # integer numerators divide to +0.0: a constant receiver's covariances,
    # and a pair whose numerator cancels
    log = MeasurementLog.from_dicts(
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
    parse_config({"simulator": HEAVY, "seeds": [1]})
    with pytest.raises(ConfigError, match=r"^joins: delays too large: a timestamp could reach 5.95e\+18 us"):
        parse_config({"simulator": HEAVY, "seeds": [1], "joins": {"batches": [50] * 12}})

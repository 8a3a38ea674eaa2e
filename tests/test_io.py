"""Trajectory JSON round trips and float emission."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from swarmplan import io, minco

FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def trajectories(draw):
    m = draw(st.integers(1, 4))
    T = draw(hnp.arrays(float, m, elements=st.floats(1e-3, 1e3)))
    coeffs = draw(hnp.arrays(float, (m, 6, 3), elements=FINITE))
    ends = [minco.BoundaryState(*draw(hnp.arrays(float, (3, 3),
                                                 elements=FINITE)))
            for _ in range(2)]
    return minco.MincoTrajectory(draw(st.floats(-1e6, 1e6)), T, coeffs,
                                 tuple(ends))


def _bits(traj):
    start, end = traj.boundary
    return [np.float64(traj.t0).tobytes(), traj.T.tobytes(),
            traj.coeffs.tobytes()] + [
        getattr(b, k).tobytes() for b in (start, end)
        for k in ("pos", "vel", "acc")]


@given(trajectories())
def test_trajectory_round_trip_is_bit_stable(traj):
    text = io.dumps_json(io.trajectory_to_dict(traj))
    back = io.trajectory_from_dict(json.loads(text))
    assert _bits(back) == _bits(traj)


@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
def test_non_finite_float_rejected(x):
    with pytest.raises(ValueError, match="non-finite"):
        io._fmt_float(x)
    with pytest.raises(ValueError, match="non-finite"):
        io.dumps_json({"t": [1.0, x]})


@pytest.mark.parametrize("row, field", [
    ("m1,nan,0,0,5,10,0,5", "t_o"),
    ("m1,0,0,inf,5,10,0,5", "p_o"),
    ("m1,0,0,0,5,10,-inf,5", "p_f"),
])
def test_mission_csv_rejects_non_finite_fields(tmp_path, row, field):
    path = tmp_path / "missions.csv"
    path.write_text("id,t_o,ox,oy,oz,fx,fy,fz\n" + row + "\n")
    with pytest.raises(ValueError, match=f"mission 'm1': {field} "):
        io.load_missions(str(path))

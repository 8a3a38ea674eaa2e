"""Trajectory JSON round trips, malformed trajectory files, and float
emission."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from swarmplan import cli, geom, io, minco

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


@pytest.mark.parametrize("key, value, message", [
    ("duration", -3.0, "piece 1: bad duration -3.0"),
    ("duration", np.nan, "piece 1: bad duration nan"),
    ("coeffs", [np.nan] * 18, "piece 1: coeffs not 6 x 3 finite"),
    ("t0", np.inf, "trajectory t0 must be finite"),
])
def test_check_rejects_malformed_trajectory(tmp_path, capsys, key, value,
                                            message):
    box = geom.Aabb(np.zeros(3), np.full(3, 50.0))
    polymap = str(tmp_path / "polymap.json")
    io.save_polymap(polymap, geom.PolyMap(
        [geom.HalfspacePolytope.from_aabb(box)], 1e-2, box))
    traj = minco.construct(0.0, np.array([4.0, 4.0]), np.array([[20, 5, 5]]),
                           minco.BoundaryState.hover([5, 5, 5]),
                           minco.BoundaryState.hover([35, 5, 5]))
    data = io.trajectory_to_dict(traj)
    (data if key == "t0" else data["pieces"][1])[key] = value
    path = tmp_path / "traj_bad.json"
    # json writes non-finite floats as NaN or Infinity; json.load reads both.
    path.write_text(json.dumps(data))
    assert cli.main(["check", "--out", str(tmp_path), "--polymap", polymap,
                     str(path)]) == cli.EXIT_USAGE
    assert message in capsys.readouterr().err


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

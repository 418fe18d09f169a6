"""Property tests over admissible random states on grids of at most 9 x 9.

Each property is a discrete identity the solver and the stability lab rely
on: validation is idempotent and pure, snapshots round-trip bitwise, the
Dirichlet rows are identity rows, the constant (h, a) vectors are the
kernel of A0, and a step conserves the nodal totals of h and a.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vpice.dynamics import ForcingInputs, StepperConfig, step
from vpice.grid import FieldSet, Grid
from vpice.io_formats import read_snapshot, write_snapshot
from vpice.operators import assemble_coupled
from vpice.params import STATE_SLACK, scaled_params
from vpice.stability import Equilibrium, assemble_A0, kernel_basis

PARAMS = scaled_params(delta=1e-4)
PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)


@st.composite
def states(draw, a_range=(0.0, 1.0)):
    """Admissible state: u zero on the boundary, h >= kappa, a in a_range."""
    grid = Grid(draw(st.integers(3, 9)), draw(st.integers(3, 9)),
                draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0)))
    shape = (grid.ny, grid.nx)

    def field(lo, hi):
        return draw(arrays(np.float64, shape, elements=st.floats(lo, hi)))

    interior = grid.interior_mask()
    return FieldSet(grid, np.where(interior, field(-0.1, 0.1), 0.0),
                    np.where(interior, field(-0.1, 0.1), 0.0),
                    field(0.5, 2.0), field(*a_range))


@PROPERTY
@given(states(a_range=(-0.1 * STATE_SLACK, 1.0 + 0.1 * STATE_SLACK)))
def test_validate_is_idempotent_and_leaves_its_input_alone(v):
    before = v.to_vector()
    once = v.validate(PARAMS)
    assert np.array_equal(v.to_vector(), before)
    assert np.all((once.a >= 0.0) & (once.a <= 1.0))
    assert once.validate(PARAMS) is once


@PROPERTY
@given(states(), st.floats(0.0, 1e6))
def test_snapshot_round_trip_is_bitwise(v, t):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "snap.bin"
        write_snapshot(path, v, t)
        back, t_back = read_snapshot(path)
    assert back.grid == v.grid and t_back == t
    assert back.to_vector().tobytes() == v.to_vector().tobytes()


@PROPERTY
@given(states())
def test_coupled_dirichlet_rows_are_identity_rows(v):
    op = assemble_coupled(v, v.grid, PARAMS)
    mask = op.dirichlet_mask
    assert np.array_equal(op.matrix[mask].toarray(), np.eye(op.dim)[mask])


@PROPERTY
@given(st.integers(3, 9), st.integers(3, 9), st.floats(0.5, 2.0),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_a0_annihilates_the_constant_kernel(nx, ny, h_star, a_star, c_cor):
    grid = Grid(nx, ny)
    op = assemble_A0(Equilibrium(h_star, a_star), grid,
                     PARAMS.with_(c_cor=c_cor))
    residual = np.max(np.abs(op.matrix @ kernel_basis(grid)))
    assert residual <= 1e-12 * abs(op.matrix).max()


@PROPERTY
@given(states(a_range=(0.1, 0.9)))
def test_step_conserves_nodal_totals(v):
    out = step(v, ForcingInputs(), PARAMS,
               StepperConfig(dt=0.01, t_end=0.01))
    for name in ("h", "a"):
        before = np.sum(getattr(v, name))
        assert abs(np.sum(getattr(out, name)) - before) <= 1e-12 * before

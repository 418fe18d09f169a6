"""Linearized operator, spectra, energy identities and decay rates."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from vpice import cli, stability
from vpice.dynamics import (
    ForcingInputs,
    RunSinks,
    StepError,
    StepperConfig,
    step,
)
from vpice.grid import (
    FieldSet,
    Grid,
    diff_ops,
    neumann_eigenvalues,
    neumann_mode,
)
from vpice.operators import (
    SparseOperator,
    assemble_coupled,
    assemble_neumann_laplacian,
    divergence_matrix,
    gradient_coupling,
)
from vpice.params import InvalidStateError, RheologyParams, scaled_params
from vpice.stability import (
    KERNEL_CERT_RTOL,
    BudgetExceededError,
    DecayFitError,
    Equilibrium,
    assemble_A0,
    decay_experiment,
    delta_gap_sweep,
    dense_unknowns,
    energy_identity_residual,
    kernel_basis,
    perturbed_equilibrium,
    semisimplicity_proxy,
    spectrum,
    spectrum_passes,
    symmetry_blocks,
    weight_constants,
    weighted_equilibrium_energy,
)

PARAMS = scaled_params(delta=1e-6, c_cor=0.0)
EQ = Equilibrium(1.0, 0.8)


def dirichlet_random_state(grid, rng, scale=1.0):
    interior = grid.interior_mask()
    v = FieldSet.constant(grid, 1.0, 0.8)
    for arr in (v.u1, v.u2):
        arr[interior] = scale * rng.normal(size=interior.sum())
    v.h += 0.05 * rng.normal(size=(grid.ny, grid.nx))
    v.a += 0.05 * rng.uniform(-1, 1, size=(grid.ny, grid.nx))
    np.clip(v.a, 0.0, 1.0, out=v.a)
    return v


# ---------------------------------------------------------------------------
# Structure of the linearization
# ---------------------------------------------------------------------------

def test_a0_is_not_block_triangular():
    g = Grid(9, 9)
    op = assemble_A0(EQ, g, PARAMS)
    n = g.n_nodes
    lower_left = op.matrix.toarray()[2 * n:, :2 * n]
    assert np.max(np.abs(lower_left)) > 0.0


def test_a0_kernel_contains_constant_h_and_a():
    g = Grid(11, 11)
    op = assemble_A0(EQ, g, PARAMS)
    basis = kernel_basis(g)
    residual = np.max(np.abs(op.matrix @ basis))
    scale = abs(op.matrix).max()
    assert residual <= 1e-12 * scale


def test_a0_equilibrium_validation():
    with pytest.raises(InvalidStateError):
        Equilibrium(0.01, 0.5).validate(PARAMS)
    with pytest.raises(InvalidStateError):
        Equilibrium(1.0, 1.5).validate(PARAMS)


def test_weight_constants():
    c_h, c_a = weight_constants(EQ, PARAMS)
    p_star = EQ.p_star(PARAMS)
    assert c_h == pytest.approx(
        PARAMS.p_star * np.exp(-PARAMS.c * 0.2) / 2.0, rel=1e-13)
    assert c_a == pytest.approx(PARAMS.c * p_star / 1.6, rel=1e-13)
    assert weight_constants(Equilibrium(1.0, 0.0), PARAMS)[1] == 1.0


# ---------------------------------------------------------------------------
# The linearized step
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("c_cor", [0.0, 1.46e-4])
@pytest.mark.parametrize("length", [1.0, 1e5, 1e6])
def test_linearized_step_contracts_off_the_kernel(length, c_cor):
    # the step (I + dt A) v' = v + dt F linearized at the equilibrium is
    # G = (I + dt A_impl)^-1 (I - dt A_expl), A_expl = A0 - A_impl the
    # explicit transport rows.  K is a right and a left eigenspace of G for
    # the eigenvalue 1, so G's other eigenvalues are those of Q^T G Q, Q an
    # orthonormal basis of K's complement.  With Coriolis explicit, the 1e6
    # m domain gave 1.0014, 1.113 and 9.41 at c_cor = 1.46e-4
    g = Grid(9, 9, lx=length, ly=length)
    params = RheologyParams(c_cor=c_cor)
    a0 = assemble_A0(EQ, g, params).matrix.toarray()
    a_impl = assemble_coupled(EQ.state(g), g, params).matrix.toarray()
    complement = sla.null_space(kernel_basis(g).T)
    identity = np.eye(len(a0))
    for dt in (600.0, 3600.0, 86400.0):
        step_matrix = np.linalg.solve(identity + dt * a_impl,
                                      identity - dt * (a0 - a_impl))
        radius = np.max(np.abs(sla.eigvals(
            complement.T @ step_matrix @ complement)))
        assert radius <= 1.0, (dt, radius)


def test_day_steps_on_a_large_domain_run(tmp_path, capsys):
    # SI defaults on a 1000 km square, 60 daily steps: with Coriolis
    # explicit, an inertial oscillation grew until a left [0, 1] at step 5
    out = tmp_path / "out"
    config = tmp_path / "day.cfg"
    config.write_text("grid.nx = 9\ngrid.ny = 9\ngrid.lx = 1e6\ngrid.ly = 1e6\n"
                      "stepper.dt = 86400\nstepper.t_end = 5184000\n"
                      f"experiment.output_dir = {out}\n")
    assert cli.dispatch(["simulate", str(config)]) == 0
    capsys.readouterr()
    assert len((out / "diagnostics.csv").read_text().splitlines()) == 1 + 61


# ---------------------------------------------------------------------------
# Spectrum
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("analysis", [spectrum, semisimplicity_proxy])
def test_stability_lab_rejects_a_scalar_operator(analysis):
    # A0 is the only operator the lab serves: a 1N operator is refused
    g = Grid(8, 8)
    with pytest.raises(ValueError, match="4N x 4N"):
        analysis(assemble_neumann_laplacian(g, 1.0), g)


def test_spectrum_a0_kernel_and_gap():
    g = Grid(17, 17)
    op = assemble_A0(EQ, g, PARAMS)
    report = spectrum(op, g)
    assert report.kernel_dim == 2
    assert np.array_equal(report.eigenvalues[:2], np.zeros(2))
    others = report.eigenvalues[report.kernel_dim:]
    assert np.min(others.real) == report.spectral_gap
    assert report.spectral_gap > 0.0
    # with c_cor = 0 the spectrum is real up to the tolerance of the report
    assert np.max(np.abs(report.eigenvalues.imag)) <= 1e-8 * report.spectral_radius


def test_spectrum_u_block_real_positive():
    g = Grid(11, 11)
    op = assemble_A0(EQ, g, PARAMS)
    n = g.n_nodes
    keep = ~op.dirichlet_mask[:2 * n]
    dense = op.matrix.toarray()[:2 * n, :2 * n][np.ix_(keep, keep)]
    # symmetric positive definite discrete form at constant coefficients
    assert np.max(np.abs(dense - dense.T)) == 0.0
    eigs = np.linalg.eigvalsh(dense)
    assert eigs[0] > 0.0


def test_spectrum_with_coriolis_keeps_nonnegative_real_parts():
    params = scaled_params(delta=1e-6, c_cor=0.5)
    g = Grid(11, 11)
    op = assemble_A0(Equilibrium(1.0, 0.8), g, params)
    report = spectrum(op, g)
    assert report.kernel_dim == 2
    assert np.min(report.eigenvalues.real) >= -1e-10 * report.spectral_radius


def unblocked_eigenvalues(op):
    keep = ~op.dirichlet_mask
    return sla.eigvals(op.matrix.toarray()[np.ix_(keep, keep)])


def sorted_mismatch(eigenvalues, expected):
    """Largest gap between the sorted spectra, relative to the radius."""
    assert eigenvalues.shape == expected.shape
    return (np.max(np.abs(np.sort_complex(eigenvalues)
                          - np.sort_complex(expected)))
            / np.max(np.abs(expected)))


MIRROR_GRIDS = [Grid(21, 21), Grid(13, 9, lx=2.0), Grid(10, 7),
                Grid(9, 15, lx=2.0), Grid(10, 10), Grid(9, 9, lx=2.0)]
# 10 x 7: even, no fixed nodes; 10 x 10: even, nodes on the diagonal fixed
# by d; 9 x 9 with lx = 2: square, but dx != dy breaks d and the quarter turn
MIRROR_PARAMS = [PARAMS, PARAMS.with_(c_cor=0.5), RheologyParams()]


@pytest.mark.parametrize("params", MIRROR_PARAMS, ids=["c0", "c05", "si"])
@pytest.mark.parametrize("g", MIRROR_GRIDS, ids=str)
def test_mirror_blocked_spectrum_matches_unblocked(g, params):
    op = assemble_A0(EQ, g, params)
    report = spectrum(op, g)
    expected = unblocked_eigenvalues(op)
    assert sorted_mismatch(report.eigenvalues, expected) <= 1e-12
    # the exact kernel: the 2 smallest |lambda| of the unblocked solve
    assert report.kernel_dim == 2
    gap = np.min(expected[np.argsort(np.abs(expected))[2:]].real)
    assert abs(report.spectral_gap - gap) <= 1e-8 * abs(gap)


@pytest.mark.parametrize("nx, ny, lx", [(25, 25, 1.0), (9, 15, 2.0)])
def test_spectrum_cli_si_defaults_keep_the_exact_kernel(nx, ny, lx, tmp_path,
                                                        capsys):
    # the SI spectral radius is large (it grows like 1/dx^2), and a kernel
    # threshold relative to it took the slowest diffusive modes for kernel
    out = tmp_path / "out"
    config = tmp_path / "spectrum.cfg"
    config.write_text(f"grid.nx = {nx}\ngrid.ny = {ny}\ngrid.lx = {lx}\n"
                      f"experiment.output_dir = {out}\n")
    assert cli.dispatch(["spectrum", str(config)]) == 0
    capsys.readouterr()
    summary = dict(line.split(" = ") for line in
                   (out / "spectrum_summary.txt").read_text().splitlines())
    expected = unblocked_eigenvalues(
        assemble_A0(EQ, Grid(nx, ny, lx=lx), RheologyParams()))
    gap = np.min(expected[np.argsort(np.abs(expected))[2:]].real)
    assert summary["kernel_dim"] == "2"
    assert abs(float(summary["spectral_gap"]) - gap) <= 1e-8 * abs(gap)
    # the SI defaults rotate: the quarter turn on the square grid
    assert summary["symmetry_group"] == ("C4" if nx == ny else "C2")


def split_size(blocks, q_values):
    """Unknowns the blocks stand for, each counted as often as its
    eigenvalues are, less the kernel columns ``spectrum`` deflates, plus
    the closed-form q eigenvalues."""
    return len(q_values) + sum(
        block.matrix.shape[0] * block.copies * (1 + block.conjugate)
        - block.kernel.shape[1] for block in blocks)


@pytest.mark.parametrize("g", MIRROR_GRIDS, ids=str)
def test_mirror_blocks_use_every_exact_symmetry(g):
    # both mirrors commute with A0 at c_cor = 0, only the half turn with
    # rotation; on a square grid with dx == dy also the diagonal reflection
    # (D4), resp. the quarter turn (C4); an assembly that breaks bitwise
    # symmetry fails here.  With d_h == d_a each character's block is its
    # (u, p) part, and the N - 1 nonzero q eigenvalues come in closed form
    square = g.nx == g.ny and g.dx == g.dy
    groups = (((0.0, "D4", 5), (0.5, "C4", 3)) if square
              else ((0.0, "Klein", 4), (0.5, "C2", 2)))
    for c_cor, expected, n_blocks in groups:
        group, blocks, q_values = symmetry_blocks(
            assemble_A0(EQ, g, PARAMS.with_(c_cor=c_cor)), g)
        assert (group, len(blocks)) == (expected, n_blocks)
        assert len(q_values) == g.n_nodes - 1
        # the trivial character's block holds the constant p, which
        # spectrum deflates; the constant q is the mode left out
        assert split_size(blocks, q_values) == dense_unknowns(g) - 2


def test_symmetry_blocks_at_21():
    # each character's (u, p) block: D4's 220, 200, 200, 180 and 401x2 and
    # C4's 400, 400 and 401x2 before the diffusion split, each less its q
    # part (65, 55, 55, 45 and 110x2; 110, 110 and 110x2), whose 440
    # nonzero eigenvalues are in closed form
    g = Grid(21, 21)
    for c_cor, expected in ((0.0, ((155, 1), (145, 1), (145, 1), (135, 1),
                                   (291, 2))),
                            (0.5, ((290, 1), (290, 1), (291, 2)))):
        report = spectrum(assemble_A0(EQ, g, PARAMS.with_(c_cor=c_cor)), g)
        assert report.block_sizes == expected
        assert len(report.eigenvalues) == 2 + sum(
            size * copies for size, copies in expected) + g.n_nodes - 1


@pytest.mark.parametrize("g", [Grid(21, 21), Grid(10, 10)], ids=str)
def test_quarter_turn_conjugate_blocks(g):
    # the character i block is complex, and the character -i block it
    # stands for is its conjugate: the spectrum is closed under conjugation
    # bit for bit
    op = assemble_A0(EQ, g, PARAMS.with_(c_cor=0.5))
    group, blocks, _ = symmetry_blocks(op, g)
    assert group == "C4"
    assert [block.conjugate for block in blocks] == [False] * 2 + [True]
    assert np.iscomplexobj(blocks[2].matrix.data)
    eigenvalues = spectrum(op, g).eigenvalues
    assert np.array_equal(np.sort_complex(eigenvalues),
                          np.sort_complex(eigenvalues.conj()))


def drag_on_u1(op, grid):
    """A0 plus 0.1 I on the interior u1 rows only: it keeps both mirrors
    and the half turn but breaks the diagonal reflection and the quarter
    turn, which swap u1 and u2."""
    interior = np.concatenate([grid.interior_mask().ravel(),
                               np.zeros(3 * grid.n_nodes, bool)])
    return SparseOperator((op.matrix + sp.diags(0.1 * interior)).tocsr(),
                          op.dirichlet_mask)


def test_mirror_blocks_fall_back_when_symmetry_breaks():
    # an interior u1 row reading h breaks every symmetry
    g = Grid(9, 9)
    op = broken_kernel(assemble_A0(EQ, g, PARAMS), g, "right")
    group, blocks, q_values = symmetry_blocks(op, g)
    # the extra entry leaves the q rows alone: the diffusion split stays
    assert (group, len(blocks), len(q_values)) == ("trivial", 1, g.n_nodes - 1)
    assert split_size(blocks, q_values) == dense_unknowns(g) - 2
    assert sorted_mismatch(spectrum(op, g).eigenvalues,
                           unblocked_eigenvalues(op)) <= 1e-12


@pytest.mark.parametrize("c_cor, expected", [(0.0, ("Klein", 4)),
                                             (0.5, ("C2", 2))])
def test_symmetry_blocks_fall_back_when_u1_u2_swap_breaks(c_cor, expected):
    # only the diagonal reflection, resp. the quarter turn, is broken
    g = Grid(9, 9)
    op = drag_on_u1(assemble_A0(EQ, g, PARAMS.with_(c_cor=c_cor)), g)
    group, blocks, q_values = symmetry_blocks(op, g)
    assert (group, len(blocks)) == expected
    assert len(q_values) == g.n_nodes - 1
    assert split_size(blocks, q_values) == dense_unknowns(g) - 2
    assert sorted_mismatch(spectrum(op, g).eigenvalues,
                           unblocked_eigenvalues(op)) <= 1e-12


SPLIT_CASES = {  # group: (grid, c_cor, characters)
    "D4": (Grid(9, 9), 0.0, 5),
    "C4": (Grid(10, 10), 0.5, 3),
    "Klein": (Grid(13, 9, lx=2.0), 0.0, 4),
    "C2": (Grid(13, 9, lx=2.0), 0.5, 2),
    "trivial": (Grid(9, 9), 0.0, 1),  # the kernel-breaking entry below
}


def split_case(group, d_a, a_star):
    g, c_cor, _ = SPLIT_CASES[group]
    op = assemble_A0(Equilibrium(1.0, a_star), g,
                     PARAMS.with_(c_cor=c_cor, d_a=d_a))
    return g, broken_kernel(op, g, "right") if group == "trivial" else op


@pytest.mark.parametrize("a_star", [0.8, 0.0])
@pytest.mark.parametrize("d_a", [PARAMS.d_h, 0.5 * PARAMS.d_h],
                         ids=["d_a=d_h", "d_a=d_h/2"])
@pytest.mark.parametrize("group", SPLIT_CASES)
def test_diffusion_split_exactly_when_d_h_equals_d_a(group, d_a, a_star):
    # with d_h == d_a the q = (a* h - h* a) / r rows are a pure diffusion:
    # every character's block is its (u, p) part, and q's eigenvalues are
    # d_h times the closed-form Neumann ones, the constant mode left out
    g, op = split_case(group, d_a, a_star)
    found, blocks, q_values = symmetry_blocks(op, g)
    assert found == group
    assert len(blocks) == SPLIT_CASES[group][2]
    n = g.n_nodes
    # (u, p) blocks are u plus one scalar field, (u, h, a) blocks two
    assert sum(block.matrix.shape[0] * block.copies * (1 + block.conjugate)
               for block in blocks) == dense_unknowns(g) - (
        n if d_a == PARAMS.d_h else 0)
    if d_a == PARAMS.d_h:
        assert np.array_equal(q_values, PARAMS.d_h * neumann_eigenvalues(g)[1:])
    else:
        assert len(q_values) == 0
    assert split_size(blocks, q_values) == dense_unknowns(g) - 2
    eigenvalues = spectrum(op, g).eigenvalues
    assert sorted_mismatch(eigenvalues, unblocked_eigenvalues(op)) <= 1e-12
    if group == "C4":
        assert np.array_equal(np.sort_complex(eigenvalues),
                              np.sort_complex(eigenvalues.conj()))


@pytest.mark.parametrize("group", SPLIT_CASES)
def test_unsplit_blocks_join_the_split_parts(group):
    # at d_h != d_a the blocks are the symmetry blocks alone, each the size
    # of the (u, p) block it turns into at d_h == d_a plus that block's p
    # unknowns, the size of the q part whose eigenvalues are in closed form
    g, op = split_case(group, 0.5 * PARAMS.d_h, 0.8)
    whole = [block.matrix.shape[0] for block in symmetry_blocks(op, g)[1]]
    g, op = split_case(group, PARAMS.d_h, 0.8)
    blocks = symmetry_blocks(op, g)[1]
    p_sizes = [int(np.sum(p))
               for _, p in projector_blocks(op, g, Equilibrium(1.0, 0.8))]
    assert whole == [block.matrix.shape[0] + p
                     for block, p in zip(blocks, p_sizes)]
    # the q parts together are the N scalar unknowns of q
    assert sum(p * block.copies * (1 + block.conjugate)
               for block, p in zip(blocks, p_sizes)) == g.n_nodes


def signed_permutation(grid, n_fields, name):
    """Dense matrix of a grid symmetry on the unknowns of (u1, u2) and
    n_fields - 2 scalar fields: node (i, j) goes to its image under the
    x-mirror "x", the y-mirror "y", the half turn "xy", the diagonal
    reflection "d" or the quarter turn "r", a scalar field is carried
    along, and a velocity is carried and turned by the linear part of the
    node map."""
    nx, ny, n = grid.nx, grid.ny, grid.n_nodes
    node_map = {"x": lambda i, j: (nx - 1 - i, j),
                "y": lambda i, j: (i, ny - 1 - j),
                "xy": lambda i, j: (nx - 1 - i, ny - 1 - j),
                "d": lambda i, j: (j, i),
                "r": lambda i, j: (j, nx - 1 - i)}[name]
    origin = np.array(node_map(0, 0))
    # columns: the images of the unit steps along i and along j
    linear = np.column_stack([np.array(node_map(1, 0)) - origin,
                              np.array(node_map(0, 1)) - origin])
    perm = np.zeros((n_fields * n, n_fields * n))
    for k in range(n):
        j, i = divmod(k, nx)
        i_to, j_to = node_map(i, j)
        to = j_to * nx + i_to
        perm[np.ix_([to, n + to], [k, n + k])] = linear
        for field in range(2, n_fields):
            perm[field * n + to, field * n + k] = 1.0
    return perm


def projector_blocks(op, grid, eq):
    """Reference for ``symmetry_blocks``, dense and from the definitions:
    A0 with its Dirichlet rows and columns dropped, turned to its (u, p)
    operator, p = c h + s a with (c, s) = (h*, a*) / |(h*, a*)|, when
    ``symmetry_blocks`` splits off q; then per character, the unit vectors
    of one unknown per orbit projected by sum_g conj(chi(g)) P_g, g over
    the group of ``signed_permutation`` matrices, normalized into the
    orthonormal basis Q, and Q^H M Q, each with the mask of its basis
    columns on p when M is turned (all False otherwise)."""
    n = grid.n_nodes
    keep = ~op.dirichlet_mask
    matrix = op.matrix.toarray()[np.ix_(keep, keep)]
    group, _, q_values = symmetry_blocks(op, grid)
    turned = len(q_values) > 0
    n_fields = 4
    if turned:
        velocity = int(np.sum(keep[:2 * n]))
        r = np.hypot(eq.h_star, eq.a_star)
        c, s = eq.h_star / r, eq.a_star / r
        h, a = slice(velocity, velocity + n), slice(velocity + n, None)
        turn = np.eye(matrix.shape[0])  # symmetric and orthogonal
        turn[h, h], turn[h, a] = c * np.eye(n), s * np.eye(n)
        turn[a, h], turn[a, a] = s * np.eye(n), -c * np.eye(n)
        matrix = (turn @ matrix @ turn)[:velocity + n, :velocity + n]
        n_fields, keep = 3, keep[:3 * n]
    names, characters = next(entry[1:] for entry in stability._GROUPS
                             if entry[0] == group)
    size = matrix.shape[0]
    columns = np.arange(size)
    elements = [(np.eye(size), ())]
    for position, name in enumerate(names):
        generator = signed_permutation(grid, n_fields, name)[np.ix_(keep, keep)]
        power = elements
        for _ in range(3 if name == "r" else 1):
            power = [(generator @ member, word + (position,))
                     for member, word in power]
            elements = elements + power
    blocks = []
    for character, _, _ in characters:
        used = [element for element in elements
                if all(position < len(character) for position in element[1])]
        images = [np.argmax(abs(member), axis=0) for member, _ in used]
        orbit_first = np.min(images, axis=0) == columns
        projector = sum(np.conj(np.prod([character[p] for p in word])) * member
                        for member, word in used)
        basis = projector[:, orbit_first]
        norms = np.linalg.norm(basis, axis=0)
        nonzero = norms > 0.0
        basis = basis[:, nonzero] / norms[nonzero]
        block = basis.conj().T @ matrix @ basis
        p = (columns[orbit_first][nonzero] >= size - n) & turned
        blocks.append((block, p))
    return blocks


@pytest.mark.parametrize("a_star", [0.8, 0.0])
@pytest.mark.parametrize("d_a", [PARAMS.d_h, 0.5 * PARAMS.d_h],
                         ids=["d_a=d_h", "d_a=d_h/2"])
@pytest.mark.parametrize("group", SPLIT_CASES)
def test_blocks_match_the_projector_reference(group, d_a, a_star):
    # each block is read off the representatives' rows of M; D4's (+,-)
    # block, of the mirrors' subgroup, is normalized by that subgroup's order
    g, op = split_case(group, d_a, a_star)
    _, blocks, q_values = symmetry_blocks(op, g)
    expected = projector_blocks(op, g, Equilibrium(1.0, a_star))
    assert len(blocks) == len(expected)
    q_parts = []
    for block, (reference, p) in zip(blocks, expected):
        assert block.matrix.shape == reference.shape
        assert (abs(block.matrix - reference).max()
                <= 1e-14 * abs(reference).max())
        # each character's q part, Q^H D Q, is the p slice of its reference
        values = np.linalg.eigvalsh(reference[np.ix_(p, p)])
        q_parts += [values] * block.copies * (1 + block.conjugate)
    q_parts = np.sort(np.concatenate(q_parts))
    if len(q_values):
        # the closed form matches every q part but the constant mode
        assert abs(q_parts[0]) <= 1e-13 * q_parts[-1]
        assert (np.max(abs(np.sort(q_values) - q_parts[1:]))
                <= 1e-13 * q_parts[-1])
    else:
        assert len(q_parts) == 0


@pytest.mark.parametrize("d_a", [PARAMS.d_h, 0.5 * PARAMS.d_h],
                         ids=["d_a=d_h", "d_a=d_h/2"])
@pytest.mark.parametrize("group", SPLIT_CASES)
def test_block_kernels_are_null_vectors(group, d_a):
    # the trivial character's block carries K in its basis: orthonormal
    # columns, each a left null vector of its block, which is what
    # spectrum's Householder deflation needs, and a right one on an intact
    # A0 (the "trivial" case breaks the right kernel).  Two columns in all,
    # or one, constant p, once the constant q is left out of the q values
    g, op = split_case(group, d_a, 0.8)
    _, blocks, q_values = symmetry_blocks(op, g)
    assert sum(block.kernel.shape[1] for block in blocks) == (
        1 if len(q_values) else 2)
    for block in blocks:
        kernel, bound = block.kernel, 1e-12 * abs(block.matrix).max()
        assert kernel.shape[0] == block.matrix.shape[0]
        assert np.allclose(kernel.T @ kernel, np.eye(kernel.shape[1]),
                           rtol=0.0, atol=1e-14)
        assert np.max(abs(block.matrix.T @ kernel), initial=0.0) <= bound
        if group != "trivial":
            assert np.max(abs(block.matrix @ kernel), initial=0.0) <= bound


def test_d4_blocks_without_the_diffusion_split():
    g, op = split_case("D4", 0.5 * PARAMS.d_h, 0.8)
    assert spectrum(op, g).block_sizes == ((40, 1), (32, 1), (32, 1), (24, 1),
                                           (65, 2))


def test_diffusion_split_needs_the_q_rows_decoupled():
    # scaling one a-row div entry keeps the equal diffusion blocks but
    # couples q to u: nothing is split
    g = Grid(9, 9)
    op = assemble_A0(EQ, g, PARAMS)
    n = g.n_nodes
    matrix = op.matrix.tolil()
    row = 3 * n + int(np.flatnonzero(g.interior_mask())[0])
    col = matrix.rows[row][0]
    assert col < 2 * n
    matrix[row, col] *= 1.5
    op = SparseOperator(matrix.tocsr(), op.dirichlet_mask)
    assert len(symmetry_blocks(op, g)[2]) == 0


def on_both_diffusion_blocks(op, grid, rows, cols, signs):
    """A0 plus the same entries on its (h, h) and (a, a) blocks: signs x
    max|D| / 2 at (rows, cols) of the three interior nodes 0, 1 and 9."""
    n = grid.n_nodes
    nodes = np.flatnonzero(grid.interior_mask())[[0, 1, 9]]
    weight = 0.5 * abs(op.matrix[2 * n:3 * n, 2 * n:3 * n]).max()
    extra = sp.coo_matrix((weight * np.asarray(signs),
                           (nodes[rows], nodes[cols])), shape=(n, n))
    both = sp.block_diag([sp.csr_matrix((2 * n, 2 * n)), extra, extra])
    return SparseOperator((op.matrix + both).tocsr(), op.dirichlet_mask)


def test_diffusion_split_needs_a_symmetric_diffusion_block():
    # a skew 3-cycle on both diffusion blocks keeps (h, h) == (a, a), the q
    # rows' decoupling and the constant kernel (its row and column sums
    # vanish), but not D == d Lap_N, whose q eigenvalues are in closed form
    g = Grid(9, 9)
    op = on_both_diffusion_blocks(
        assemble_A0(EQ, g, PARAMS), g, [0, 1, 2, 1, 2, 0], [1, 2, 0, 0, 1, 2],
        [1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    assert len(symmetry_blocks(op, g)[2]) == 0
    assert sorted_mismatch(spectrum(op, g).eigenvalues,
                           unblocked_eigenvalues(op)) <= 1e-12


def test_diffusion_split_needs_the_neumann_laplacian():
    # the graph Laplacian of a triangle on both diffusion blocks keeps
    # (h, h) == (a, a), D == D^T, the constant kernel (zero row sums) and
    # the decoupled q rows, which D == D^T alone took for a split, but D is
    # no longer d Lap_N, so the closed form does not hold and nothing is
    # split
    g = Grid(9, 9)
    op = on_both_diffusion_blocks(
        assemble_A0(EQ, g, PARAMS), g,
        [0, 1, 2, 0, 1, 1, 2, 2, 0], [0, 1, 2, 1, 0, 2, 1, 0, 2],
        [2.0, 2.0, 2.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0])
    n = g.n_nodes
    diffusion = op.matrix[2 * n:3 * n, 2 * n:3 * n]
    assert (diffusion != op.matrix[3 * n:, 3 * n:]).nnz == 0
    assert (diffusion != diffusion.T).nnz == 0
    assert semisimplicity_proxy(op, g).certified
    _, blocks, q_values = symmetry_blocks(op, g)
    assert len(q_values) == 0
    assert split_size(blocks, q_values) == dense_unknowns(g) - 2
    assert sorted_mismatch(spectrum(op, g).eigenvalues,
                           unblocked_eigenvalues(op)) <= 1e-12


@pytest.mark.parametrize("c_cor", [0.0, 0.5])
def test_diffusion_split_tolerates_a_rounded_diffusivity(c_cor):
    # on 10 x 10, D[0, 0] / Lap_N[0, 0] = (0.1 x 162) / 162 rounds to
    # 0.09999999999999999, not d_h = 0.1: D and d Lap_N differ in their
    # last digits, far below eps max|M|, and the split still happens
    g = Grid(10, 10)
    params = PARAMS.with_(c_cor=c_cor, d_h=0.1, d_a=0.1)
    op = assemble_A0(EQ, g, params)
    laplacian = diff_ops(g)["neumann"]
    n = g.n_nodes
    velocity = int(np.sum(~op.dirichlet_mask[:2 * n]))
    matrix = stability._reduced(op, g)[0]
    d = matrix[velocity, velocity] / laplacian[0, 0]
    assert d != params.d_h
    _, blocks, q_values = symmetry_blocks(op, g)
    assert np.array_equal(q_values, d * neumann_eigenvalues(g)[1:])
    assert split_size(blocks, q_values) == dense_unknowns(g) - 2
    assert sorted_mismatch(spectrum(op, g).eigenvalues,
                           unblocked_eigenvalues(op)) <= 1e-12


@pytest.mark.parametrize("params", [PARAMS, RheologyParams()],
                         ids=["c0", "si"])
def test_slowest_q_mode_sets_the_gap_bit_for_bit(params):
    # where q's slowest mode is the slowest of A0, the gap is d_h times the
    # smallest nonzero Neumann eigenvalue, bit for bit
    g = Grid(17, 17)
    gap = spectrum(assemble_A0(EQ, g, params), g).spectral_gap
    assert gap == params.d_h * np.min(neumann_eigenvalues(g)[1:])


def test_spectrum_budget():
    g = Grid(60, 60)
    op = assemble_A0(EQ, g, PARAMS)
    # the grid-only count is the one spectrum takes from the Dirichlet mask
    assert dense_unknowns(g) == int(np.sum(~op.dirichlet_mask)) > 10_000
    with pytest.raises(BudgetExceededError):
        spectrum(op, g)


def test_semisimplicity_proxy():
    # the constant-(h, a) basis is an exact right and left kernel
    for n in (9, 13, 21):
        g = Grid(n, n)
        for c_cor in (0.0, 0.5):
            report = semisimplicity_proxy(
                assemble_A0(EQ, g, PARAMS.with_(c_cor=c_cor)), g)
            bound = 1e-12 * report.operator_norm
            assert report.kernel_dim == 2
            assert report.right_residual <= bound
            assert report.left_residual <= bound
            assert report.restriction_norm <= bound
            assert report.certified


def reduced_certificate(op, grid):
    """Oracle: the certificate's figures from the reduced operator M and
    the kept rows of K, as ``_reduced`` builds them."""
    matrix, _, basis = stability._reduced(op, grid)
    image = matrix @ basis
    return (np.linalg.norm(image, 2), np.linalg.norm(matrix.T @ basis, 2),
            np.linalg.norm(basis.T @ image, 2), abs(matrix).max())


@pytest.mark.parametrize("g", [Grid(9, 9), Grid(13, 9, lx=2.0)], ids=str)
def test_certificate_reads_the_reduced_operator_off_a0s_rows(g):
    ops = [assemble_A0(EQ, g, params)
           for params in (PARAMS, PARAMS.with_(c_cor=0.5), RheologyParams())]
    ops += [broken_kernel(ops[0], g, side) for side in ("left", "right")]
    for op in ops:
        report = semisimplicity_proxy(op, g)
        assert (report.right_residual, report.left_residual,
                report.restriction_norm,
                report.operator_norm) == reduced_certificate(op, g)


@pytest.mark.parametrize("n", [11, 21])
def test_certificate_operator_norm_is_max_abs_entry(n):
    g = Grid(n, n)
    op = assemble_A0(EQ, g, PARAMS)
    keep = ~op.dirichlet_mask
    dense = op.matrix.toarray()[np.ix_(keep, keep)]
    norm = semisimplicity_proxy(op, g).operator_norm
    assert norm == np.max(np.abs(dense))
    # the 1 -> inf norm is at most the 2-norm, so the rule is no looser
    assert norm <= np.linalg.norm(dense, 2)


def test_spectrum_pass_rule_needs_a_resolved_gap():
    g = Grid(9, 9)
    op = assemble_A0(EQ, g, PARAMS)
    report, proxy = spectrum(op, g), semisimplicity_proxy(op, g)
    assert spectrum_passes(report, proxy)
    # a positive gap at the rounding level of the radius is not resolved
    noise = 0.5 * KERNEL_CERT_RTOL * report.spectral_radius
    assert not spectrum_passes(
        dataclasses.replace(report, spectral_gap=noise), proxy)


def broken_kernel(op, grid, side):
    """A0 plus one entry 1e-3 x max|A0| that breaks the left kernel (an
    h row reading interior u1) or the right kernel (an interior u1 row
    reading h)."""
    n = grid.n_nodes
    node = int(np.flatnonzero(grid.interior_mask())[0])
    row, col = (2 * n + node, node) if side == "left" else (node, 2 * n + node)
    extra = sp.coo_matrix(([1e-3 * abs(op.matrix).max()], ([row], [col])),
                          shape=op.matrix.shape)
    return SparseOperator((op.matrix + extra).tocsr(), op.dirichlet_mask)


@pytest.mark.parametrize("side, intact", [("left", "right"),
                                          ("right", "left")])
def test_certificate_fails_on_broken_kernel(side, intact, tmp_path,
                                            monkeypatch, capsys):
    g = Grid(9, 9)
    report = semisimplicity_proxy(broken_kernel(assemble_A0(EQ, g, PARAMS),
                                                g, side), g)
    assert getattr(report, f"{side}_residual") > 1e-12 * report.operator_norm
    assert getattr(report, f"{intact}_residual") == 0.0
    assert not report.certified

    original = cli.assemble_A0
    monkeypatch.setattr(cli, "assemble_A0", lambda eq, grid, params:
                        broken_kernel(original(eq, grid, params), grid, side))
    out = tmp_path / "out"
    config = tmp_path / "spectrum.cfg"
    config.write_text(f"grid.nx = 9\ngrid.ny = 9\nexperiment.output_dir = {out}\n")
    assert cli.dispatch(["spectrum", str(config)]) == 1
    capsys.readouterr()
    summary = dict(line.split(" = ") for line in
                   (out / "spectrum_summary.txt").read_text().splitlines())
    assert float(summary[f"kernel_{side}_residual"]) > 0.0
    assert float(summary[f"kernel_{intact}_residual"]) == 0.0


def test_gap_converges_to_continuum_diffusive_mode():
    # the gap is the first nonzero eigenvalue of the reflected Neumann
    # stencil; on the vertex grid that matrix (uniquely fixed by symmetry
    # and zero row sums) carries a first-order boundary weighting, so the
    # observed order is 1, approaching d_h (pi / lx)^2 from below
    gaps, spacings = [], []
    for n in (9, 17, 33):
        g = Grid(n, n)
        gaps.append(spectrum(assemble_A0(EQ, g, PARAMS), g).spectral_gap)
        spacings.append(g.dx)
    gaps = np.array(gaps)
    continuum = PARAMS.d_h * np.pi**2
    errors = continuum - gaps
    assert np.all(errors > 0.0)
    assert np.all(np.diff(errors) < 0.0)
    orders = np.log(errors[:-1] / errors[1:]) / np.log(
        np.array(spacings[:-1]) / np.array(spacings[1:]))
    assert np.all(np.abs(orders - 1.0) <= 0.25)


def test_delta_sweep_gap_positive_for_small_delta():
    g = Grid(9, 9)
    deltas = np.logspace(-8, -2, 4)
    gaps = delta_gap_sweep(EQ, g, PARAMS, deltas)
    assert np.all(gaps > 0.0)


# ---------------------------------------------------------------------------
# Energy identities
# ---------------------------------------------------------------------------

def test_energy_identity_kernel_vector_all_terms_vanish():
    g = Grid(9, 9)
    op = assemble_A0(EQ, g, PARAMS)
    v = FieldSet.constant(g, 1.0, 1.0)  # (0, const, const)
    v.h[:] = 1.0
    v.a[:] = 0.5
    out = energy_identity_residual(op, v, EQ, PARAMS)
    for value in out["terms"].values():
        assert abs(value) <= 1e-12
    assert abs(out["assembled"]) <= 1e-12


def test_energy_identity_random_vectors():
    g = Grid(11, 11)
    for params in (PARAMS, PARAMS.with_(c_cor=0.5)):
        op = assemble_A0(EQ, g, params)
        rng = np.random.default_rng(21)
        for _ in range(10):
            v = dirichlet_random_state(g, rng)
            out = energy_identity_residual(op, v, EQ, params)
            assert out["mismatch"] <= 1e-10


def test_callers_leave_a_drifted_state_unchanged():
    # a within the slack above 1 is clamped in a copy, never in the caller's state
    g = Grid(9, 9)
    v = dirichlet_random_state(g, np.random.default_rng(5), scale=1e-2)
    v.a[4, 4] = 1.0 + 1e-12
    before = v.to_vector()
    assemble_coupled(v, g, PARAMS)
    step(v, ForcingInputs(), PARAMS, StepperConfig(dt=0.01, t_end=0.01))
    energy_identity_residual(assemble_A0(EQ, g, PARAMS), v, EQ, PARAMS)
    assert np.array_equal(v.to_vector(), before)


def test_a0_coriolis_rows_are_interior_rotation():
    # the energy identity cannot see these rows: a skew term has a zero form
    g = Grid(9, 9)
    n = g.n_nodes
    rot = (assemble_A0(EQ, g, PARAMS.with_(c_cor=0.5)).matrix
           - assemble_A0(EQ, g, PARAMS).matrix).toarray()
    idx = np.flatnonzero(g.interior_mask())
    expected = np.zeros((4 * n, 4 * n))
    expected[idx, n + idx] = 0.5
    expected[n + idx, idx] = 0.5
    assert np.array_equal(rot, -rot.T)
    assert np.array_equal(np.abs(rot), expected)


@pytest.mark.parametrize("c_cor", [0.0, 0.5])
@pytest.mark.parametrize("g", [Grid(9, 9), Grid(13, 9)], ids=str)
def test_a0_equals_block_formula_bitwise(g, c_cor):
    # A0 is the step's coupled operator at the equilibrium state, Coriolis
    # rotation included, plus the h* div, a* div rows, entry for entry
    params = PARAMS.with_(c_cor=c_cor)
    div = divergence_matrix(g)
    n = g.n_nodes
    extra = sp.bmat([
        [sp.csr_matrix((2 * n, 2 * n)), None],
        [sp.vstack([EQ.h_star * div, EQ.a_star * div]),
         sp.csr_matrix((2 * n, 2 * n))],
    ])
    coupled = assemble_coupled(EQ.state(g), g, params)
    expected = (coupled.matrix + extra).tocsr()
    got = assemble_A0(EQ, g, params)
    for m in (expected, got.matrix):
        m.sort_indices()
    assert np.array_equal(got.matrix.indptr, expected.indptr)
    assert np.array_equal(got.matrix.indices, expected.indices)
    assert np.array_equal(got.matrix.data, expected.data)
    assert np.array_equal(got.dirichlet_mask, coupled.dirichlet_mask)


def test_a0_coriolis_is_linearization_of_stepper_tendency():
    # v' = -A0 v must turn u the way the step does: A0's Coriolis rows are
    # those of the step operator, bit for bit, also frozen at a state at
    # rest with varying h and a
    g = Grid(9, 9)
    with_cor = PARAMS.with_(c_cor=0.5)
    rng = np.random.default_rng(21)
    v = dirichlet_random_state(g, rng, scale=0.0)
    rotation = [(new.matrix - old.matrix).toarray() for new, old in (
        (assemble_A0(EQ, g, with_cor), assemble_A0(EQ, g, PARAMS)),
        (assemble_coupled(v, g, with_cor), assemble_coupled(v, g, PARAMS)))]
    assert np.count_nonzero(rotation[0]) == 2 * int(g.interior_mask().sum())
    assert np.array_equal(rotation[0], rotation[1])


def test_discrete_integration_by_parts():
    g = Grid(13, 13)
    rng = np.random.default_rng(3)
    interior = g.interior_mask()
    u1 = np.zeros((g.ny, g.nx))
    u2 = np.zeros((g.ny, g.nx))
    u1[interior] = rng.normal(size=interior.sum())
    u2[interior] = rng.normal(size=interior.sum())
    h = rng.normal(size=g.n_nodes)
    div = divergence_matrix(g)
    grad = gradient_coupling(g, np.ones(g.n_nodes))
    u = np.concatenate([u1.ravel(), u2.ravel()])
    lhs = (div @ u) @ h          # integral of div(u) h
    rhs = -(grad @ h) @ u        # integral of -u . grad h
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_weighted_energy_zero_at_equilibrium():
    g = Grid(9, 9)
    value, breakdown = weighted_equilibrium_energy(EQ.state(g), EQ, PARAMS)
    assert abs(value) <= 1e-12
    assert all(abs(term) <= 1e-12 for term in breakdown.values())


def test_weighted_energy_zero_for_motionless_constants():
    g = Grid(9, 9)
    v = FieldSet.constant(g, 1.3, 0.4)  # constants differing from EQ
    value, breakdown = weighted_equilibrium_energy(v, EQ, PARAMS)
    assert abs(value) <= 1e-14
    assert all(abs(t) <= 1e-14 for t in breakdown.values())


def test_weighted_energy_margins_near_equilibrium():
    # the proof bookkeeping: transport terms cancel against the matching
    # part of the pressure-gradient term; remainders are bounded by the
    # distance to the equilibrium
    g = Grid(11, 11)
    rng = np.random.default_rng(7)
    c_h, c_a = weight_constants(EQ, PARAMS)
    for scale in (1e-3, 1e-2):
        v = perturbed_equilibrium(EQ, g, scale, PARAMS)
        interior = g.interior_mask()
        v.u1[interior] = scale * rng.normal(size=interior.sum())
        v.u2[interior] = scale * rng.normal(size=interior.sum())
        v.validate(PARAMS)
        value, breakdown = weighted_equilibrium_energy(v, EQ, PARAMS)
        assert value == pytest.approx(sum(breakdown.values()), rel=1e-12)
        # coercive terms dominate: the viscous and diffusion entries are
        # nonnegative, the remainder terms are O(r) relative to them
        assert breakdown["viscous"] >= 0.0
        assert breakdown["thickness_diffusion"] >= 0.0
        assert breakdown["compactness_diffusion"] >= 0.0
        coercive = (breakdown["viscous"] + breakdown["thickness_diffusion"]
                    + breakdown["compactness_diffusion"])
        remainder = (abs(breakdown["pressure_gradient"]
                         + breakdown["thickness_transport"]
                         + breakdown["compactness_transport"])
                     + abs(breakdown["momentum_advection"]))
        assert remainder <= 10.0 * scale * coercive + 1e-14


def test_transport_cancels_weighted_gradient_exactly():
    # discrete analogue of the cancellation used in the proof: for any
    # state, integral of div(u h) h equals minus integral of h grad h . u
    g = Grid(11, 11)
    rng = np.random.default_rng(11)
    v = dirichlet_random_state(g, rng)
    div = divergence_matrix(g)
    from vpice.grid import diff_ops
    ops = diff_ops(g)
    flux = np.concatenate([(v.u1 * v.h).ravel(), (v.u2 * v.h).ravel()])
    lhs = v.h.ravel() @ (div @ flux)
    gh = np.stack([ops["dx"] @ v.h.ravel(), ops["dy"] @ v.h.ravel()])
    rhs = -np.sum(v.h.ravel() * (gh[0] * v.u1.ravel() + gh[1] * v.u2.ravel()))
    assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), 1.0)


# ---------------------------------------------------------------------------
# Decay experiments
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scale, error, message", [
    (0.0, InvalidStateError, "nonzero perturbation_scale"),
    # the run's perturbation norm would hold only the rounding of the
    # mean-value equilibrium, about 1e-16, and fit a rate to it
    (1e-308, DecayFitError, "lost to rounding"),
])
def test_decay_zero_perturbation(scale, error, message):
    rows = []  # stopped before the run: no diagnostics row is streamed
    cfg = StepperConfig(dt=0.01, t_end=0.15)
    with pytest.raises(error, match=message):
        decay_experiment(EQ, scale, Grid(9, 9), PARAMS, cfg,
                         RunSinks(on_diagnostics=rows.append))
    assert rows == []


@pytest.mark.parametrize("h_star, a_star, scale, shrunk", [
    (1.0, 0.8, 1e-3, ""), (1.0, 0.0, 1e-3, ""),
    (1.0, 1.0 - 5e-11, 1e-10, ""),  # a past 1 within STATE_SLACK: clamped
    (1.0, 1.0, 1e-3, "a"), (0.1, 0.8, 1e-3, "h"), (0.1, 1.0, 1e-3, "ha"),
    (1.0, 0.8, -0.3, "a"), (0.15, 0.8, 0.5, "ha"), (0.15, 0.8, -0.5, "ha"),
])
def test_perturbed_equilibrium_shrinks_only_what_would_leave(h_star, a_star,
                                                            scale, shrunk):
    g = Grid(9, 7)
    eq = Equilibrium(h_star, a_star)
    v = perturbed_equilibrium(eq, g, scale, PARAMS)
    for name, star, mode, low, high in (
            ("h", h_star, neumann_mode(g.nx), PARAMS.kappa, np.inf),
            ("a", a_star, neumann_mode(g.ny)[:, None], 0.0, 1.0)):
        values = getattr(v, name)
        mode = np.broadcast_to(mode, values.shape)
        if name not in shrunk:  # as before the shrinking: a start keeps its bytes
            assert np.array_equal(values,
                                  np.clip(star + scale * star * mode, low, high))
            continue
        # the same mode, shrunk until its extreme touches the edge; node 0
        # holds the mode's largest entry
        amplitude = (values.flat[0] - star) / mode.flat[0]
        assert amplitude * scale >= 0.0 and abs(amplitude) < abs(scale * star)
        np.testing.assert_allclose(values, star + amplitude * mode, rtol=0,
                                   atol=4e-16)
        assert low <= values.min() and values.max() <= high
        assert min(values.min() - low, high - values.max()) <= 4e-16


def test_decay_state_error_prints_plain_floats():
    # at a* = 1 the run starts from an admissible state, a unperturbed, but
    # the transport row a* div u pushes a past 1 + STATE_SLACK at step 2;
    # the one-line message names the range as plain floats
    cfg = StepperConfig(dt=0.01, t_end=0.15)
    with pytest.raises(StepError,
                       match=r"^step 2 .* range \[0\.999\d+, 1\.000\d+\]$"):
        decay_experiment(Equilibrium(1.0, 1.0), 1e-3, Grid(9, 9), PARAMS, cfg)


@pytest.mark.parametrize("scale", [1e-13, 1e-14, 1e-15])
def test_decay_refuses_a_fit_window_at_the_rounding_floor(scale):
    # the norm stalls at about 8.7e-16, rounding of the mean-value
    # equilibrium: 1e-14 fitted 3.75 and 1e-15 a growth rate, -3.3e-6, and
    # 1e-13, whose window ends 49 times above the floor, 7.55 for 7.44
    cfg = StepperConfig(dt=0.01, t_end=0.25)
    with pytest.raises(DecayFitError, match="rounding floor"):
        decay_experiment(EQ, scale, Grid(9, 9), PARAMS, cfg)


def test_decay_rate_holds_down_to_the_rounding_floor():
    cfg = StepperConfig(dt=0.01, t_end=0.25)
    rates = [decay_experiment(EQ, scale, Grid(9, 9), PARAMS, cfg).fitted_rate
             for scale in (1e-3, 1e-12)]
    assert rates[1] == pytest.approx(rates[0], rel=1e-3)


def test_decay_fit_needs_enough_samples():
    g = Grid(9, 9)
    cfg = StepperConfig(dt=0.01, t_end=0.05)  # five steps only
    with pytest.raises(DecayFitError):
        decay_experiment(EQ, 1e-3, g, PARAMS, cfg)

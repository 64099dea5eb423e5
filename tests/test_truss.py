"""Truss meshes, load programs, the constraint system and its projection."""

from __future__ import annotations

import numpy as np
import pytest

from ddmech.phase import GlobalMetric
from ddmech.truss import (
    LatticeSpec,
    LoadProgram,
    MechanismError,
    PiecewiseLinearProgram,
    Prescribed,
    TrussMesh,
    assemble,
    generate_lattice_truss,
    load_mesh,
    save_mesh,
)


def unit_bar(prescribed=()):
    """One bar of unit length along x; node 0 pinned, node 1 held in y, z."""
    return TrussMesh(
        node_coords=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        conn=np.array([[0, 1]]),
        areas=np.array([1.0]),
        supports=frozenset({(0, 0), (0, 1), (0, 2), (1, 1), (1, 2)}),
        prescribed=tuple(prescribed),
    )


def pyramid():
    """Four bars from a fixed unit square base to one free apex node."""
    coords = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [1.0, 1.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.5, 0.5, 1.0],
        ]
    )
    conn = np.array([[0, 4], [1, 4], [2, 4], [3, 4]])
    supports = frozenset((n, d) for n in range(4) for d in range(3))
    return TrussMesh(coords, conn, np.ones(4), supports)


class TestPiecewiseLinearProgram:
    """Breakpoint schedules."""

    def test_interpolation_and_clamping(self):
        prog = PiecewiseLinearProgram.from_breakpoints(
            ((0.0, 0.0), (10.0, 1.0), (50.0, 1.0), (60.0, 0.0))
        )
        assert prog(5.0) == 0.5
        assert prog(30.0) == 1.0
        assert prog(55.0) == 0.5
        assert prog(-3.0) == 0.0  # constant before the first breakpoint
        assert prog(200.0) == 0.0  # and after the last

    def test_constant(self):
        prog = PiecewiseLinearProgram.constant(2.5)
        assert prog(0.0) == 2.5
        assert prog(1e6) == 2.5

    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            PiecewiseLinearProgram.from_breakpoints(((0.0, 0.0), (0.0, 1.0)))


class TestTrussMesh:
    """Geometry validation and derived quantities."""

    def test_unit_bar_geometry(self):
        mesh = unit_bar()
        assert mesh.n_nodes == 2
        assert mesh.n_bars == 1
        assert mesh.lengths[0] == 1.0
        assert np.array_equal(mesh.unit_vectors[0], [1.0, 0.0, 0.0])
        assert mesh.volumes[0] == 1.0

    def test_volume_is_area_times_length(self):
        coords = np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
        mesh = TrussMesh(
            coords,
            np.array([[0, 1]]),
            np.array([2.0]),
            frozenset({(0, d) for d in range(3)} | {(1, 1), (1, 2)}),
        )
        assert mesh.lengths[0] == 5.0
        assert mesh.volumes[0] == 10.0

    def test_rejects_degenerate_bar(self):
        with pytest.raises(ValueError):
            TrussMesh(
                np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
                np.array([[0, 0]]),
                np.array([1.0]),
                frozenset(),
            )

    def test_rejects_nonpositive_area(self):
        with pytest.raises(ValueError):
            TrussMesh(
                np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
                np.array([[0, 1]]),
                np.array([0.0]),
                frozenset(),
            )


class TestLattice:
    """Deterministic lattice generator."""

    def test_unit_cube_counts(self):
        """1x1x1 cell: 8 nodes, 12 edges plus 12 face diagonals."""
        mesh = generate_lattice_truss(LatticeSpec(1, 1, 1))
        assert mesh.n_nodes == 8
        assert mesh.n_bars == 24

    def test_no_diagonals(self):
        mesh = generate_lattice_truss(LatticeSpec(1, 1, 1, face_diagonals=False))
        assert mesh.n_bars == 12

    def test_default_study_lattice(self):
        """6x1x2 cantilever: 42 nodes, 197 bars, x=0 face fixed."""
        mesh = generate_lattice_truss(LatticeSpec(6, 1, 2))
        assert mesh.n_nodes == 42
        assert mesh.n_bars == 197
        fixed_nodes = {n for (n, _) in mesh.supports}
        assert all(mesh.node_coords[n, 0] == 0.0 for n in fixed_nodes)
        assert len(fixed_nodes) == 6

    def test_deterministic(self):
        a = generate_lattice_truss(LatticeSpec(3, 2, 2))
        b = generate_lattice_truss(LatticeSpec(3, 2, 2))
        assert np.array_equal(a.conn, b.conn)
        assert np.array_equal(a.node_coords, b.node_coords)

    def test_spacing_and_area(self):
        mesh = generate_lattice_truss(LatticeSpec(2, 1, 1, spacing=0.5, area=3.0))
        assert np.max(mesh.node_coords[:, 0]) == 1.0
        assert np.all(mesh.areas == 3.0)


class TestLoadProgram:
    """Scheduled nodal forces."""

    def test_from_nodal_and_scale(self):
        mesh = pyramid()
        gm = GlobalMetric.uniform(1000.0, mesh.volumes)
        sys = assemble(mesh, gm)
        loads = LoadProgram.from_nodal(
            sys, {(4, 2): -10.0}, ((0.0, 0.0), (10.0, 1.0))
        )
        assert loads.scale(5.0) == 0.5
        f = loads.forces(10.0)
        assert f[sys.dof_index(4, 2)] == -10.0
        assert np.count_nonzero(f) == 1

    def test_rejects_supported_dof(self):
        mesh = pyramid()
        sys = assemble(mesh, GlobalMetric.uniform(1000.0, mesh.volumes))
        with pytest.raises(ValueError):
            LoadProgram.from_nodal(sys, {(0, 0): 1.0}, ((0.0, 1.0),))


class TestConstraintSystem:
    """Strain operator, factorization and the affine part."""

    def test_unit_bar_operator(self):
        mesh = unit_bar()
        gm = GlobalMetric.uniform(100.0, mesh.volumes)
        sys = assemble(mesh, gm)
        assert sys.n_free == 1
        assert sys.n_elements == 1
        # unit end displacement of a unit bar is unit strain
        assert sys.b_free[0, 0] == pytest.approx(1.0, rel=1e-15)

    def test_mechanism_detected(self):
        """A free node not braced in y is a mechanism."""
        coords = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        mesh = TrussMesh(
            coords,
            np.array([[0, 1]]),
            np.array([1.0]),
            frozenset({(0, 0), (0, 1), (0, 2), (1, 2)}),
        )
        with pytest.raises(MechanismError):
            assemble(mesh, GlobalMetric.uniform(100.0, mesh.volumes))

    def test_prescribed_affine_strain(self):
        """Held end displacement shows up as the strain offset g."""
        prog = PiecewiseLinearProgram.from_breakpoints(((0.0, 0.0), (1.0, 2e-3)))
        mesh = unit_bar([Prescribed(1, 0, prog)])
        sys = assemble(mesh, GlobalMetric.uniform(100.0, mesh.volumes))
        assert sys.n_free == 0
        assert sys.affine_strain(1.0)[0] == pytest.approx(2e-3, rel=1e-15)
        assert sys.affine_strain(0.5)[0] == pytest.approx(1e-3, rel=1e-15)

    def test_elastic_strain_increment_matches_projection(self, rng):
        """The elastic estimate equals the projection of an elastic step.

        Projecting the zero state puts the elastic response in the stress
        half only: the strain half is the compatible strain closest to the
        input, which is zero. The elastic state (est, c est) is itself
        compatible and equilibrated, so the projection returns it unchanged.
        """
        mesh = pyramid()
        gm = GlobalMetric.uniform(1000.0, mesh.volumes)
        sys = assemble(mesh, gm)
        f = rng.normal(size=sys.n_free) * 10.0
        est = sys.elastic_strain_increment(f, None, None, None)
        eps, sig, _ = sys.project_arrays(
            np.zeros(4), np.zeros(4), f, np.zeros(4)
        )
        assert np.array_equal(eps, np.zeros(4))
        assert np.allclose(gm.c_diag * est, sig, rtol=1e-12, atol=1e-12)
        eps, sig, _ = sys.project_arrays(est, gm.c_diag * est, f, np.zeros(4))
        assert np.allclose(est, eps, rtol=1e-12, atol=1e-15)
        assert np.allclose(gm.c_diag * est, sig, rtol=1e-12, atol=1e-12)


def pyramid_system():
    mesh = pyramid()
    return assemble(mesh, GlobalMetric.uniform(1000.0, mesh.volumes))


class TestProjection:
    """Closest compatible-equilibrated state."""

    def test_idempotence(self, rng):
        """Projecting a projected state changes nothing (within 1e-10)."""
        sys, g = pyramid_system(), np.zeros(4)
        for _ in range(25):
            y_eps, y_sig = rng.normal(size=4), rng.normal(scale=100.0, size=4)
            f = rng.normal(size=sys.n_free) * 50.0
            eps1, sig1, _ = sys.project_arrays(y_eps, y_sig, f, g)
            eps2, sig2, _ = sys.project_arrays(eps1, sig1, f, g)
            scale = max(1.0, float(np.max(np.abs(eps1))))
            assert np.max(np.abs(eps2 - eps1)) <= 1e-10 * scale
            sscale = max(1.0, float(np.max(np.abs(sig1))))
            assert np.max(np.abs(sig2 - sig1)) <= 1e-10 * sscale

    def test_compatibility_and_equilibrium(self, rng):
        """eps = B u exactly; equilibrium residual at solver precision."""
        sys, g = pyramid_system(), np.zeros(4)
        for _ in range(25):
            y_eps, y_sig = rng.normal(size=4), rng.normal(scale=100.0, size=4)
            f = rng.normal(size=sys.n_free) * 50.0
            eps, sig, u = sys.project_arrays(y_eps, y_sig, f, g)
            assert np.allclose(eps, sys.b_free @ u, atol=1e-14)
            residual = sys.equilibrium_residual(sig, f)
            assert residual <= 1e-9 * max(1.0, float(np.linalg.norm(f)))

    def test_power_identity(self, rng):
        """f . u equals the weighted internal power sum (<= 1e-8 relative)."""
        sys, g = pyramid_system(), np.zeros(4)
        for _ in range(25):
            y_eps, y_sig = rng.normal(size=4), rng.normal(scale=100.0, size=4)
            f = rng.normal(size=sys.n_free) * 50.0
            eps, sig, u = sys.project_arrays(y_eps, y_sig, f, g)
            external = float(f @ u)
            internal = float(np.sum(sys.weights * sig * eps))
            assert internal == pytest.approx(external, rel=1e-8, abs=1e-10)

    def test_elastic_state_is_fixed_point(self):
        """An exactly compatible-equilibrated state projects to itself."""
        sys, g = pyramid_system(), np.zeros(4)
        f = np.array([0.0, 0.0, -40.0])
        eps, sig, u = sys.project_arrays(np.zeros(4), np.zeros(4), f, g)
        eps2, sig2, _ = sys.project_arrays(eps, sig, f, g)
        assert np.allclose(eps2, eps, atol=1e-15)
        assert np.allclose(sig2, sig, atol=1e-12)


class TestMeshIO:
    """Plain-text mesh round trip and parse errors."""

    def test_round_trip(self, tmp_path):
        prog = PiecewiseLinearProgram.from_breakpoints(((0.0, 0.0), (1.0, 1e-3)))
        mesh = unit_bar([Prescribed(1, 0, prog)])
        path = tmp_path / "bar.mesh"
        named = save_mesh(mesh, path, loads={(1, 0): 5.0})
        again, loads = load_mesh(path, named)
        assert again.n_nodes == mesh.n_nodes
        assert np.array_equal(again.conn, mesh.conn)
        assert np.array_equal(again.node_coords, mesh.node_coords)
        assert np.array_equal(again.areas, mesh.areas)
        assert again.supports == mesh.supports
        assert loads == {(1, 0): 5.0}
        assert len(again.prescribed) == 1
        assert again.prescribed[0].node == 1
        assert again.prescribed[0].program(1.0) == prog(1.0)

    def test_loads_accumulate(self, tmp_path):
        path = tmp_path / "two_loads.mesh"
        path.write_text(
            "NODES\n0 0 0 0\n1 1 0 0\n"
            "BARS\n0 0 1 1.0\n"
            "SUPPORTS\n0 x\n0 y\n0 z\n1 y\n1 z\n"
            "LOADS\n1 x 2.0\n1 x 3.0\n"
        )
        _, loads = load_mesh(path)
        assert loads == {(1, 0): 5.0}

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "broken.mesh"
        path.write_text("NODES\n0 0 0 0\nnot-an-id 1 0 0\n")
        with pytest.raises(ValueError) as err:
            load_mesh(path)
        assert f"{path}:3" in str(err.value)

    def test_unknown_program_rejected(self, tmp_path):
        path = tmp_path / "prog.mesh"
        path.write_text(
            "NODES\n0 0 0 0\n1 1 0 0\n"
            "BARS\n0 0 1 1.0\n"
            "SUPPORTS\n0 x\n0 y\n0 z\n1 y\n1 z\n"
            "PRESCRIBED\n1 x ramp\n"
        )
        with pytest.raises(ValueError):
            load_mesh(path)

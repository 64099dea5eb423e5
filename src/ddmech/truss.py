"""Small-strain truss model: meshes, load programs, assembly, and the
closest-point projection onto the compatible-equilibrated set.

A truss with ``M`` bars and ``n`` unconstrained displacement components
carries the linear strain operator ``B`` (rows ``B_e``, axial strain per unit
nodal displacement). The admissible set at time ``t`` collects the states
that are simultaneously compatible, ``eps = B u + g(t)`` with ``g`` the
affine contribution of prescribed displacements, and equilibrated,
``sum_e w_e B_e^T sig_e = f(t)``. Projecting a phase-space point onto that
set under the weighted quadratic metric amounts to two linear solves with
the same SPD matrix ``K = sum_e w_e C_e B_e^T B_e``, factored once per mesh
and reused for every step and iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpbsv

from .data import require_int
from .phase import GlobalMetric

__all__ = [
    "MechanismError",
    "PiecewiseLinearProgram",
    "Prescribed",
    "TrussMesh",
    "LoadProgram",
    "ConstraintSystem",
    "LatticeSpec",
    "assemble",
    "generate_lattice_truss",
    "load_mesh",
]

_DIRECTIONS = {"x": 0, "y": 1, "z": 2}
_DIRECTION_NAMES = {v: k for k, v in _DIRECTIONS.items()}


class MechanismError(RuntimeError):
    """Raised when the structure has a rigid-body or mechanism mode."""


def parse_direction(token) -> int:
    """Accepts 'x'/'y'/'z' or 0/1/2."""
    if isinstance(token, str):
        key = token.strip().lower()
        if key in _DIRECTIONS:
            return _DIRECTIONS[key]
        if key in {"0", "1", "2"}:
            return int(key)
        raise ValueError(f"unknown direction {token!r}")
    d = int(token)
    if d not in (0, 1, 2):
        raise ValueError(f"direction must be 0, 1 or 2, got {token!r}")
    return d


@dataclass(frozen=True)
class PiecewiseLinearProgram:
    """Piecewise-linear scalar schedule, constant beyond its end points."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float).reshape(-1)
        v = np.asarray(self.values, dtype=float).reshape(-1)
        if t.size < 1 or t.size != v.size:
            raise ValueError("times and values must be nonempty and of equal length")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("breakpoints must be finite")
        if t.size > 1 and not np.all(np.diff(t) > 0.0):
            raise ValueError("breakpoint times must be strictly increasing")
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_breakpoints(cls, breakpoints: Iterable[tuple[float, float]]) -> "PiecewiseLinearProgram":
        pts = list(breakpoints)
        return cls(np.array([p[0] for p in pts]), np.array([p[1] for p in pts]))

    @classmethod
    def constant(cls, value: float) -> "PiecewiseLinearProgram":
        return cls(np.array([0.0]), np.array([float(value)]))

    def __call__(self, t) -> float | np.ndarray:
        out = np.interp(t, self.times, self.values)
        return float(out) if np.ndim(t) == 0 else out


@dataclass(frozen=True)
class Prescribed:
    """A displacement component driven by a scalar program."""

    node: int
    direction: int
    program: PiecewiseLinearProgram

    def __post_init__(self) -> None:
        object.__setattr__(self, "node", int(self.node))
        object.__setattr__(self, "direction", parse_direction(self.direction))


@dataclass(frozen=True)
class TrussMesh:
    """Immutable truss geometry plus kinematic boundary conditions.

    ``supports`` pins displacement components to zero; ``prescribed`` drives
    them by scalar programs. The two sets must not overlap.
    """

    node_coords: np.ndarray
    conn: np.ndarray
    areas: np.ndarray
    supports: frozenset[tuple[int, int]] = frozenset()
    prescribed: tuple[Prescribed, ...] = ()
    lengths: np.ndarray = field(init=False, repr=False)
    unit_vectors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        coords = np.asarray(self.node_coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 3 or coords.shape[0] < 2:
            raise ValueError("node_coords must have shape (n_nodes >= 2, 3)")
        if not np.all(np.isfinite(coords)):
            raise ValueError("node coordinates must be finite")
        conn = np.asarray(self.conn, dtype=int)
        if conn.ndim != 2 or conn.shape[1] != 2 or conn.shape[0] < 1:
            raise ValueError("conn must have shape (n_bars >= 1, 2)")
        n = coords.shape[0]
        if np.any(conn < 0) or np.any(conn >= n):
            raise ValueError("bar connectivity references nonexistent nodes")
        if np.any(conn[:, 0] == conn[:, 1]):
            raise ValueError("bars must join two distinct nodes")
        areas = np.asarray(self.areas, dtype=float).reshape(-1)
        if areas.size != conn.shape[0]:
            raise ValueError("one cross-section area per bar is required")
        if np.any(~np.isfinite(areas)) or np.any(areas <= 0.0):
            raise ValueError("areas must be positive")
        vec = coords[conn[:, 1]] - coords[conn[:, 0]]
        lengths = np.linalg.norm(vec, axis=1)
        if np.any(lengths <= 0.0):
            raise ValueError("zero-length bar")
        units = vec / lengths[:, None]
        supports = frozenset((int(a), parse_direction(d)) for a, d in self.supports)
        for node, _ in supports:
            if node < 0 or node >= n:
                raise ValueError(f"support references nonexistent node {node}")
        prescribed = tuple(self.prescribed)
        seen: set[tuple[int, int]] = set()
        for p in prescribed:
            if p.node < 0 or p.node >= n:
                raise ValueError(f"prescribed displacement references nonexistent node {p.node}")
            key = (p.node, p.direction)
            if key in supports:
                raise ValueError(f"dof {key} is both supported and prescribed")
            if key in seen:
                raise ValueError(f"dof {key} prescribed twice")
            seen.add(key)
        for arr in (coords, conn, areas, lengths, units):
            arr.setflags(write=False)
        object.__setattr__(self, "node_coords", coords)
        object.__setattr__(self, "conn", conn)
        object.__setattr__(self, "areas", areas)
        object.__setattr__(self, "supports", supports)
        object.__setattr__(self, "prescribed", prescribed)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "unit_vectors", units)

    @property
    def n_nodes(self) -> int:
        return self.node_coords.shape[0]

    @property
    def n_bars(self) -> int:
        return self.conn.shape[0]

    @property
    def volumes(self) -> np.ndarray:
        """Bar volumes, the natural weights of the global metric."""
        return self.areas * self.lengths


@dataclass(frozen=True)
class LoadProgram:
    """External nodal forces ``base_forces * scale(t)`` over the free dofs."""

    breakpoints: PiecewiseLinearProgram
    base_forces: np.ndarray

    def __post_init__(self) -> None:
        f = np.asarray(self.base_forces, dtype=float).reshape(-1).copy()
        if not np.all(np.isfinite(f)):
            raise ValueError("base forces must be finite")
        f.setflags(write=False)
        object.__setattr__(self, "base_forces", f)

    @classmethod
    def from_nodal(
        cls,
        sys: "ConstraintSystem",
        nodal: Mapping[tuple[int, int], float],
        breakpoints: Iterable[tuple[float, float]],
    ) -> "LoadProgram":
        """Builds the free-dof force vector from (node, direction) -> value."""
        return cls(
            PiecewiseLinearProgram.from_breakpoints(breakpoints),
            sys.force_vector(nodal),
        )

    def scale(self, t: float) -> float:
        return float(self.breakpoints(t))

    def forces(self, t: float) -> np.ndarray:
        return self.base_forces * self.scale(t)


class ConstraintSystem:
    """Assembled strain operator, metric data and factored projection matrix.

    Built by :func:`assemble`; holds everything the projection and the time
    marches need, so the factorization is computed exactly once per mesh.
    The leverage the swap polish reads and the band pattern of the response
    init's tangent are built on first use and kept for the life of the system.
    """

    def __init__(self, mesh: TrussMesh, gm: GlobalMetric) -> None:
        if gm.n_elements != mesh.n_bars:
            raise ValueError(
                f"metric has {gm.n_elements} elements but mesh has {mesh.n_bars} bars"
            )
        self.mesh = mesh
        self.gm = gm
        self.weights = gm.weights
        self.c = gm.c_diag
        self.c_inv = gm.c_inv_diag

        constrained: dict[tuple[int, int], PiecewiseLinearProgram | None] = {
            key: None for key in mesh.supports
        }
        for p in mesh.prescribed:
            constrained[(p.node, p.direction)] = p.program
        self.con_dofs: list[tuple[int, int]] = sorted(constrained)
        self._con_programs = [constrained[k] for k in self.con_dofs]
        all_dofs = [(n, d) for n in range(mesh.n_nodes) for d in range(3)]
        self.free_dofs: list[tuple[int, int]] = [
            dof for dof in all_dofs if dof not in constrained
        ]
        self._free_index = {dof: i for i, dof in enumerate(self.free_dofs)}
        con_index = {dof: i for i, dof in enumerate(self.con_dofs)}

        m, nf, nc = mesh.n_bars, len(self.free_dofs), len(self.con_dofs)
        b_free = np.zeros((m, nf))
        b_con = np.zeros((m, nc))
        for e in range(m):
            a, b = mesh.conn[e]
            coeff = mesh.unit_vectors[e] / mesh.lengths[e]
            for d in range(3):
                for node, sign in ((a, -1.0), (b, 1.0)):
                    dof = (int(node), d)
                    if dof in self._free_index:
                        b_free[e, self._free_index[dof]] += sign * coeff[d]
                    else:
                        b_con[e, con_index[dof]] += sign * coeff[d]
        self.b_free = b_free
        self.b_con = b_con

        wc = self.weights * self.c
        self.k_matrix = b_free.T @ (wc[:, None] * b_free) if nf else np.zeros((0, 0))
        self._cho = None
        self._leverage = None
        self._band = None
        if nf:
            try:
                self._cho = cho_factor(self.k_matrix)
            except np.linalg.LinAlgError:
                self._raise_mechanism()
            except ValueError:
                self._raise_mechanism()

    def _raise_mechanism(self) -> None:
        vals, vecs = np.linalg.eigh(self.k_matrix)
        mode = vecs[:, 0]
        worst = int(np.argmax(np.abs(mode)))
        node, d = self.free_dofs[worst]
        raise MechanismError(
            "stiffness matrix is singular (eigenvalue "
            f"{vals[0]:.3e}); near-null displacement mode is dominated by "
            f"node {node} direction {_DIRECTION_NAMES[d]}"
        )

    @property
    def n_elements(self) -> int:
        return self.mesh.n_bars

    @property
    def n_free(self) -> int:
        return len(self.free_dofs)

    def dof_index(self, node: int, direction) -> int:
        """Column of a free displacement component in the assembled operator.

        Raises ``ValueError`` for a supported or prescribed dof.
        """
        key = (int(node), parse_direction(direction))
        if key not in self._free_index:
            raise ValueError(f"dof {key} is not free")
        return self._free_index[key]

    def is_free(self, node: int, direction) -> bool:
        return (int(node), parse_direction(direction)) in self._free_index

    def force_vector(self, nodal: Mapping[tuple[int, int], float]) -> np.ndarray:
        """Free-dof force vector from a (node, direction) -> value mapping.

        Raises ``ValueError`` if a key names a supported or prescribed dof.
        """
        f = np.zeros(self.n_free)
        for (node, direction), value in nodal.items():
            f[self.dof_index(node, direction)] += float(value)
        return f

    def solve_k(self, rhs: np.ndarray) -> np.ndarray:
        if self.n_free == 0:
            return np.zeros_like(rhs)
        return cho_solve(self._cho, rhs)

    def leverage(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(K^-1 B^T, B K^-1 B^T, its diagonal)``, computed on first use
        and kept for the life of the system.

        Column e of the middle matrix, the influence matrix, is the strain
        response of every bar to a unit data shift of bar e, and its
        diagonal is each bar's leverage. The swap polish reads one column
        per accepted move, so the matrix is stored column-major: its values
        are those of ``B @ K^-1 B^T``, and no row-major copy is kept.
        """
        if self._leverage is None:
            s = self.solve_k(self.b_free.T)
            infl = np.asfortranarray(self.b_free @ s)
            self._leverage = (s, infl, np.diag(infl).copy())
        return self._leverage

    def solve_tangent(self, s: np.ndarray, r: np.ndarray) -> np.ndarray | None:
        """``du`` with ``B^T diag(s) B du = r`` for positive ``s``, by banded
        Cholesky (LAPACK ``dpbsv``) on a band pattern built once, or None
        when that matrix is not positive definite."""
        if self._band is None:
            e, col = np.nonzero(self.b_free)  # each bar's entries, in column order
            # pair every entry p with the entries q <= p of its bar
            start = np.searchsorted(e, e)
            p = np.repeat(np.arange(e.size), np.arange(e.size) - start + 1)
            q = start[p] + np.arange(p.size) - np.searchsorted(p, p)
            i, j, bar = col[p], col[q], e[p]
            kd = int(np.max(i - j, initial=0))
            # column-major (kd + 1, n) band: row i - j of column j holds K[i, j]
            self._band = (bar, j * (kd + 1) + i - j, self.b_free[bar, i] * self.b_free[bar, j], kd)
        bar, pos, prod, kd = self._band
        ab = np.bincount(pos, s.take(bar) * prod, (kd + 1) * self.n_free)
        _, du, info = dpbsv(ab.reshape((kd + 1, self.n_free), order="F"), r, lower=1)
        return du if info == 0 else None

    def constrained_values(self, t: float | None) -> np.ndarray:
        """Displacements of constrained dofs at time ``t`` (zero when None)."""
        u = np.zeros(len(self.con_dofs))
        if t is None:
            return u
        for i, prog in enumerate(self._con_programs):
            if prog is not None:
                u[i] = prog(t)
        return u

    def affine_strain(self, t: float | None) -> np.ndarray:
        """Strain offset contributed by the prescribed displacements."""
        if not self.con_dofs:
            return np.zeros(self.n_elements)
        return self.b_con @ self.constrained_values(t)

    def project_arrays(
        self,
        eps_in: np.ndarray,
        sig_in: np.ndarray,
        f: np.ndarray,
        g: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Closest compatible-equilibrated state to the per-bar arrays under
        the metric; returns (eps, sig, u).

        Two solves with the factored matrix: a displacement solve for the
        strain part and a multiplier solve enforcing equilibrium on the
        stress part.
        """
        wc = self.weights * self.c
        u = self.solve_k(self.b_free.T @ (wc * (eps_in - g)))
        eps = self.b_free @ u + g
        lam = self.solve_k(f - self.b_free.T @ (self.weights * sig_in))
        sig = sig_in + self.c * (self.b_free @ lam)
        return eps, sig, u

    def equilibrium_residual(self, sig: np.ndarray, f: np.ndarray) -> float:
        return float(np.linalg.norm(self.b_free.T @ (self.weights * sig) - f))

    def elastic_strain_increment(
        self,
        f_new: np.ndarray,
        f_prev: np.ndarray | None,
        t_new: float | None,
        t_prev: float | None,
    ) -> np.ndarray:
        """Strain increment of the linear-elastic comparison step.

        Uses the metric moduli as stiffness, so with the default metric this
        is the instantaneous elastic estimate of the step. Cheap: one
        back-substitution with the cached factorization.
        """
        df = f_new - (f_prev if f_prev is not None else 0.0)
        dg = self.affine_strain(t_new) - self.affine_strain(t_prev)
        wc = self.weights * self.c
        du = self.solve_k(df - self.b_free.T @ (wc * dg))
        return self.b_free @ du + dg


def assemble(mesh: TrussMesh, gm: GlobalMetric) -> ConstraintSystem:
    """Builds strain operators and factors the SPD projection matrix once."""
    return ConstraintSystem(mesh, gm)


@dataclass(frozen=True)
class LatticeSpec:
    """Regular nx x ny x nz cell block with axis-aligned edges and both
    diagonals on every lattice face (a mechanism without); x = 0 is fixed."""

    nx: int
    ny: int
    nz: int
    spacing: float = 1.0
    area: float = 1.0

    def __post_init__(self) -> None:
        for name in ("nx", "ny", "nz"):
            object.__setattr__(self, name, require_int(name, getattr(self, name), 1))
        for name in ("spacing", "area"):
            # written so that NaN fails the comparison and is rejected
            if not 0.0 < float(getattr(self, name)) < np.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")


def generate_lattice_truss(spec: LatticeSpec) -> TrussMesh:
    """Deterministic lattice mesh; same spec always yields the same mesh."""
    nx, ny, nz = spec.nx, spec.ny, spec.nz
    def node_id(i: int, j: int, k: int) -> int:
        return (i * (ny + 1) + j) * (nz + 1) + k

    coords = np.array(
        [
            [i * spec.spacing, j * spec.spacing, k * spec.spacing]
            for i in range(nx + 1)
            for j in range(ny + 1)
            for k in range(nz + 1)
        ]
    )
    bars: list[tuple[int, int]] = []
    for i in range(nx + 1):
        for j in range(ny + 1):
            for k in range(nz + 1):
                a = node_id(i, j, k)
                if i < nx:
                    bars.append((a, node_id(i + 1, j, k)))
                if j < ny:
                    bars.append((a, node_id(i, j + 1, k)))
                if k < nz:
                    bars.append((a, node_id(i, j, k + 1)))
                if i < nx and j < ny:
                    bars.append((a, node_id(i + 1, j + 1, k)))
                    bars.append((node_id(i + 1, j, k), node_id(i, j + 1, k)))
                if i < nx and k < nz:
                    bars.append((a, node_id(i + 1, j, k + 1)))
                    bars.append((node_id(i + 1, j, k), node_id(i, j, k + 1)))
                if j < ny and k < nz:
                    bars.append((a, node_id(i, j + 1, k + 1)))
                    bars.append((node_id(i, j + 1, k), node_id(i, j, k + 1)))
    supports = frozenset(
        (node_id(0, j, k), d) for j in range(ny + 1) for k in range(nz + 1) for d in range(3)
    )
    return TrussMesh(
        node_coords=coords,
        conn=np.array(bars, dtype=int),
        areas=np.full(len(bars), spec.area),
        supports=supports,
    )


_SECTIONS = ("NODES", "BARS", "SUPPORTS", "LOADS", "PRESCRIBED")


def load_mesh(
    path,
    programs: Mapping[str, PiecewiseLinearProgram] | None = None,
) -> tuple[TrussMesh, dict[tuple[int, int], float]]:
    """Reads the plain-text mesh format.

    Sections NODES (id x y z), BARS (id a b area), SUPPORTS (node dir),
    LOADS (node dir value) and PRESCRIBED (node dir program-id), whitespace
    delimited, '#' to end of line is a comment. Program ids are resolved
    through ``programs``. ``ValueError`` names ``path:line`` of a malformed
    line, a node coordinate or a dof's summed load that is not finite, a bar
    that joins a node to itself or has no positive finite area, an entry
    naming a node absent from NODES, a dof prescribed twice, and, checked
    once every line is read, a zero-length bar (with its nodes), a
    prescribed or loaded dof that is supported and a loaded dof that is
    prescribed. Returns the mesh and the nodal load dictionary.
    """
    text = Path(path).read_text()
    programs = dict(programs or {})
    section = None
    nodes: dict[int, tuple[float, float, float]] = {}
    bars: dict[int, tuple[int, int, float, int]] = {}
    supports: set[tuple[int, int]] = set()
    loads: dict[tuple[int, int], float] = {}
    prescribed: list[Prescribed] = []
    # (line, node) of every node an entry names, and the first line of every
    # loaded and every prescribed dof, checked once all are read
    refs: list[tuple[int, int]] = []
    load_lines: dict[tuple[int, int], int] = {}
    prescribed_lines: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        token = line.upper()
        if token in _SECTIONS:
            section = token
            continue
        parts = line.split()
        try:
            if section == "NODES":
                if len(parts) != 4:
                    raise ValueError("expected: id x y z")
                nid = int(parts[0])
                if nid in nodes:
                    raise ValueError(f"duplicate node id {nid}")
                nodes[nid] = (float(parts[1]), float(parts[2]), float(parts[3]))
                if not np.all(np.isfinite(nodes[nid])):
                    raise ValueError(f"node {nid}: coordinates must be finite")
            elif section == "BARS":
                if len(parts) != 4:
                    raise ValueError("expected: id a b area")
                bid, a, b, area = int(parts[0]), int(parts[1]), int(parts[2]), float(parts[3])
                if bid in bars:
                    raise ValueError(f"duplicate bar id {bid}")
                if a == b:
                    raise ValueError(f"bar {bid} joins node {a} to itself")
                # written so that NaN fails the comparison and is rejected
                if not 0.0 < area < np.inf:
                    raise ValueError(f"bar {bid}: area must be finite and positive, got {area}")
                bars[bid] = (a, b, area, lineno)
                refs += [(lineno, a), (lineno, b)]
            elif section == "SUPPORTS":
                if len(parts) != 2:
                    raise ValueError("expected: node dir")
                supports.add((int(parts[0]), parse_direction(parts[1])))
                refs.append((lineno, int(parts[0])))
            elif section == "LOADS":
                if len(parts) != 3:
                    raise ValueError("expected: node dir value")
                key = (int(parts[0]), parse_direction(parts[1]))
                loads[key] = loads.get(key, 0.0) + float(parts[2])
                if not np.isfinite(loads[key]):
                    raise ValueError(f"load on dof {key} must be finite, got {loads[key]}")
                refs.append((lineno, key[0]))
                load_lines.setdefault(key, lineno)
            elif section == "PRESCRIBED":
                if len(parts) != 3:
                    raise ValueError("expected: node dir program-id")
                if parts[2] not in programs:
                    raise ValueError(f"PRESCRIBED references unknown program id {parts[2]!r}")
                entry = Prescribed(int(parts[0]), parts[1], programs[parts[2]])
                key = (entry.node, entry.direction)
                if key in prescribed_lines:
                    raise ValueError(f"dof {key} prescribed twice")
                prescribed.append(entry)
                refs.append((lineno, entry.node))
                prescribed_lines[key] = lineno
            else:
                raise ValueError(f"data before any section header: {line!r}")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not nodes:
        raise ValueError(f"{path}: no NODES section")
    if sorted(nodes) != list(range(len(nodes))):
        raise ValueError(f"{path}: node ids must be contiguous from 0")
    if sorted(bars) != list(range(len(bars))):
        raise ValueError(f"{path}: bar ids must be contiguous from 0")
    for lineno, node in refs:
        if node not in nodes:
            raise ValueError(f"{path}:{lineno}: no node {node} in NODES")
    for key, lineno in prescribed_lines.items():
        if key in supports:
            raise ValueError(f"{path}:{lineno}: dof {key} is both supported and prescribed")
    for key, lineno in load_lines.items():
        if key in supports:
            raise ValueError(f"{path}:{lineno}: load on dof {key}, which is supported")
        if key in prescribed_lines:
            raise ValueError(f"{path}:{lineno}: load on dof {key}, which is prescribed")
    coords = np.array([nodes[i] for i in range(len(nodes))])
    conn = np.array([[bars[i][0], bars[i][1]] for i in range(len(bars))], dtype=int)
    areas = np.array([bars[i][2] for i in range(len(bars))])
    lengths = np.linalg.norm(coords[conn[:, 1]] - coords[conn[:, 0]], axis=1)  # as TrussMesh
    for e in np.flatnonzero(lengths <= 0.0)[:1]:
        a, b, _, line = bars[e]
        raise ValueError(f"{path}:{line}: zero-length bar {e}: nodes {a} and {b} lie at {nodes[a]}")
    mesh = TrussMesh(
        node_coords=coords,
        conn=conn,
        areas=areas,
        supports=frozenset(supports),
        prescribed=tuple(prescribed),
    )
    return mesh, loads

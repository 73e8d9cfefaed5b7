"""Unstructured hexagonal C-grid mesh (the GRIST horizontal mesh).

The mesh is the Voronoi dual of an icosahedral geodesic triangulation:

* **cells** — the triangulation nodes; Voronoi polygons (hexagons, plus 12
  pentagons at the icosahedron sites).  Mass-point quantities (pressure,
  temperature, tracers) live here.
* **edges** — the unique node pairs of the triangulation.  The prognostic
  normal velocity lives here (C-grid staggering).
* **vertices** — triangle circumcentres; relative vorticity lives here.

All connectivity is stored as padded integer arrays (pad value ``-1``) so
that every stencil a :func:`~repro.dycore.stencil.compiled_kernels` plan
compiles is a fully vectorised gather/scatter — the NumPy analogue of the
paper's indirect-addressing scheme (section 3.1.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import EARTH_RADIUS, OMEGA
from repro.grid.icosahedral import icosahedral_triangulation

#: Padding value in connectivity arrays.
PAD = -1

#: Maximum cell degree on the icosahedral grid (hexagons).
MAX_DEG = 6


@dataclass
class Mesh:
    """Hexagonal C-grid mesh with full connectivity and spherical geometry.

    Index conventions
    -----------------
    * ``edge_cells[e] = (c1, c2)``; the unit edge normal points c1 -> c2.
    * ``edge_vertices[e] = (v1, v2)``; ordered so that (normal, v1->v2
      tangent, outward radial) is right-handed.
    * ``cell_edge_sign[i, k] = +1`` when edge ``k``'s normal points out of
      cell ``i``.
    * ``vertex_edge_sign[v, k] = +1`` when edge ``k``'s normal direction is
      counter-clockwise in the circulation around vertex ``v``.
    """

    level: int
    radius: float
    # Counts
    nc: int
    ne: int
    nv: int
    # Geometry
    cell_xyz: np.ndarray          # (nc, 3) unit vectors
    vertex_xyz: np.ndarray        # (nv, 3) unit vectors
    edge_xyz: np.ndarray          # (ne, 3) unit vectors (edge midpoints)
    cell_lat: np.ndarray          # (nc,)
    cell_lon: np.ndarray          # (nc,)
    edge_normal: np.ndarray       # (ne, 3) unit, tangent to sphere
    edge_tangent: np.ndarray      # (ne, 3) unit, tangent to sphere
    de: np.ndarray                # (ne,) dual-edge (cell-to-cell) arc length [m]
    le: np.ndarray                # (ne,) primal (Voronoi) edge arc length [m]
    cell_area: np.ndarray         # (nc,) [m^2]
    vertex_area: np.ndarray       # (nv,) [m^2]
    # Connectivity
    edge_cells: np.ndarray        # (ne, 2)
    edge_vertices: np.ndarray     # (ne, 2)
    cell_ne: np.ndarray           # (nc,) degree (5 or 6)
    cell_edges: np.ndarray        # (nc, MAX_DEG) padded
    cell_edge_sign: np.ndarray    # (nc, MAX_DEG) float, 0 where padded
    cell_neighbors: np.ndarray    # (nc, MAX_DEG) padded
    cell_vertices: np.ndarray     # (nc, MAX_DEG) padded, CCW ordered
    vertex_cells: np.ndarray      # (nv, 3)
    vertex_edges: np.ndarray      # (nv, 3)
    vertex_edge_sign: np.ndarray  # (nv, 3) float
    # Velocity-vector reconstruction operator (cell): (nc, 3, MAX_DEG)
    cell_recon: np.ndarray
    # Coriolis parameter at the three staggering locations
    f_cell: np.ndarray = field(default=None)
    f_edge: np.ndarray = field(default=None)
    f_vertex: np.ndarray = field(default=None)

    @property
    def edge_lat(self) -> np.ndarray:
        return np.arcsin(np.clip(self.edge_xyz[:, 2], -1.0, 1.0))

    @property
    def vertex_lat(self) -> np.ndarray:
        return np.arcsin(np.clip(self.vertex_xyz[:, 2], -1.0, 1.0))

    def mean_spacing(self) -> float:
        """Mean dual-edge length [m] — the nominal grid resolution."""
        return float(self.de.mean())

    def euler_characteristic(self) -> int:
        """V - E + F of the primal triangulation; 2 on the sphere."""
        return self.nc - self.ne + self.nv

    def take(
        self, cells: np.ndarray, edges: np.ndarray, vertices: np.ndarray
    ) -> Mesh:
        """The mesh renumbered or restricted to the given entities.

        Entity ``k`` of the result is this mesh's ``cells[k]`` /
        ``edges[k]`` / ``vertices[k]`` (unique valid ids): a permutation
        of all ids renumbers the mesh, a subset restricts it.  Geometry
        is row-sliced.  Connectivity is remapped to the new numbering; an
        id that was not taken becomes ``PAD`` in the padded tables
        (``cell_edges``, ``cell_neighbors``, ``cell_vertices``,
        ``vertex_edges``) and ``0`` in the fixed-arity ones
        (``edge_cells``, ``edge_vertices``, ``vertex_cells``), which have
        no pad slot and stay safely indexable.  Incidence signs are
        zeroed wherever the remapped edge slot is ``PAD``, so a dropped
        edge contributes nothing to any stencil sum.
        """
        def new_ids(ids: np.ndarray, n: int) -> np.ndarray:
            # One spare trailing slot: indexing with PAD (-1) reads PAD.
            new = np.full(n + 1, PAD, dtype=np.int64)
            new[ids] = np.arange(len(ids))
            return new

        new_c = new_ids(cells, self.nc)
        new_e = new_ids(edges, self.ne)
        new_v = new_ids(vertices, self.nv)
        cell_edges = new_e[self.cell_edges[cells]]
        vertex_edges = new_e[self.vertex_edges[vertices]]
        return Mesh(
            level=self.level,
            radius=self.radius,
            nc=len(cells),
            ne=len(edges),
            nv=len(vertices),
            cell_xyz=self.cell_xyz[cells],
            vertex_xyz=self.vertex_xyz[vertices],
            edge_xyz=self.edge_xyz[edges],
            cell_lat=self.cell_lat[cells],
            cell_lon=self.cell_lon[cells],
            edge_normal=self.edge_normal[edges],
            edge_tangent=self.edge_tangent[edges],
            de=self.de[edges],
            le=self.le[edges],
            cell_area=self.cell_area[cells],
            vertex_area=self.vertex_area[vertices],
            edge_cells=np.maximum(new_c[self.edge_cells[edges]], 0),
            edge_vertices=np.maximum(new_v[self.edge_vertices[edges]], 0),
            cell_ne=self.cell_ne[cells],
            cell_edges=cell_edges,
            cell_edge_sign=np.where(
                cell_edges == PAD, 0.0, self.cell_edge_sign[cells]
            ),
            cell_neighbors=new_c[self.cell_neighbors[cells]],
            cell_vertices=new_v[self.cell_vertices[cells]],
            vertex_cells=np.maximum(new_c[self.vertex_cells[vertices]], 0),
            vertex_edges=vertex_edges,
            vertex_edge_sign=np.where(
                vertex_edges == PAD, 0.0, self.vertex_edge_sign[vertices]
            ),
            cell_recon=self.cell_recon[cells],
            f_cell=self.f_cell[cells],
            f_edge=self.f_edge[edges],
            f_vertex=self.f_vertex[vertices],
        )


def _arc_length(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Great-circle arc length between unit vectors (unit-sphere radians)."""
    # atan2 form is accurate for both small and near-pi separations.
    cross = np.linalg.norm(np.cross(a, b), axis=-1)
    dot = np.einsum("...i,...i->...", a, b)
    return np.arctan2(cross, dot)


def _spherical_triangle_area(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Unit-sphere triangle area via L'Huilier's theorem (vectorised)."""
    sa = _arc_length(b, c)
    sb = _arc_length(a, c)
    sc = _arc_length(a, b)
    s = 0.5 * (sa + sb + sc)
    inner = (
        np.tan(0.5 * s)
        * np.tan(0.5 * (s - sa))
        * np.tan(0.5 * (s - sb))
        * np.tan(0.5 * (s - sc))
    )
    return 4.0 * np.arctan(np.sqrt(np.clip(inner, 0.0, None)))


def _circumcenters(points: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Spherical circumcentres of triangles, on the same side as the face."""
    p0, p1, p2 = (points[faces[:, k]] for k in range(3))
    n = np.cross(p1 - p0, p2 - p0)
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    centroid = (p0 + p1 + p2) / 3.0
    flip = np.einsum("ij,ij->i", n, centroid) < 0.0
    n[flip] *= -1.0
    return n


def _tangent_basis(xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Local east/north unit vectors at unit-sphere points."""
    z = np.array([0.0, 0.0, 1.0])
    east = np.cross(z, xyz)
    nrm = np.linalg.norm(east, axis=1, keepdims=True)
    # At the poles pick an arbitrary tangent direction.
    polar = nrm[:, 0] < 1e-12
    east[polar] = np.array([1.0, 0.0, 0.0])
    nrm[polar] = 1.0
    east /= nrm
    north = np.cross(xyz, east)
    return east, north


def build_mesh(level: int, radius: float = EARTH_RADIUS) -> Mesh:
    """Build the full hexagonal C-grid mesh at icosahedral grid level ``level``.

    This is the Python analogue of GRIST's grid-generation preprocessing;
    everything downstream (partitioning, operators, halo exchange) consumes
    the returned :class:`Mesh`.
    """
    points, faces = icosahedral_triangulation(level)
    nc = points.shape[0]
    nv = faces.shape[0]

    # ---- Edges: unique sorted node pairs -------------------------------
    ea = faces[:, [0, 1, 2]].ravel()
    eb = faces[:, [1, 2, 0]].ravel()
    pairs = np.sort(np.stack([ea, eb], axis=1), axis=1)
    edge_cells, inverse = np.unique(pairs, axis=0, return_inverse=True)
    ne = edge_cells.shape[0]

    # ---- Vertices: triangle circumcentres ------------------------------
    vertex_xyz = _circumcenters(points, faces)
    vertex_cells = faces.copy()

    # ---- Edge <-> vertex incidence -------------------------------------
    # Each edge borders exactly two triangles on a closed surface.
    tri_of_halfedge = np.repeat(np.arange(nv), 3)
    order = np.argsort(inverse, kind="stable")
    sorted_tris = tri_of_halfedge[order]
    edge_vertices = sorted_tris.reshape(ne, 2)

    # ---- Edge geometry ---------------------------------------------------
    c1 = edge_cells[:, 0]
    c2 = edge_cells[:, 1]
    mid = points[c1] + points[c2]
    mid /= np.linalg.norm(mid, axis=1, keepdims=True)
    chord = points[c2] - points[c1]
    normal = chord - np.einsum("ij,ij->i", chord, mid)[:, None] * mid
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    tangent = np.cross(mid, normal)

    # Order edge_vertices so v1 -> v2 runs along +tangent.
    dv = vertex_xyz[edge_vertices[:, 1]] - vertex_xyz[edge_vertices[:, 0]]
    swap = np.einsum("ij,ij->i", dv, tangent) < 0.0
    edge_vertices[swap] = edge_vertices[swap][:, ::-1]

    de = radius * _arc_length(points[c1], points[c2])
    le = radius * _arc_length(
        vertex_xyz[edge_vertices[:, 0]], vertex_xyz[edge_vertices[:, 1]]
    )

    # ---- Cell -> edge / neighbour adjacency (padded) ---------------------
    cell_edges = np.full((nc, MAX_DEG), PAD, dtype=np.int64)
    cell_edge_sign = np.zeros((nc, MAX_DEG), dtype=np.float64)
    cell_neighbors = np.full((nc, MAX_DEG), PAD, dtype=np.int64)
    cell_ne = np.zeros(nc, dtype=np.int64)

    cell_of_slot = np.concatenate([c1, c2])
    edge_of_slot = np.concatenate([np.arange(ne), np.arange(ne)])
    sign_of_slot = np.concatenate([np.ones(ne), -np.ones(ne)])
    nbr_of_slot = np.concatenate([c2, c1])
    order = np.argsort(cell_of_slot, kind="stable")
    cell_sorted = cell_of_slot[order]
    counts = np.bincount(cell_sorted, minlength=nc)
    slot_in_cell = np.arange(cell_sorted.size) - np.repeat(
        np.concatenate([[0], np.cumsum(counts)[:-1]]), counts
    )
    cell_edges[cell_sorted, slot_in_cell] = edge_of_slot[order]
    cell_edge_sign[cell_sorted, slot_in_cell] = sign_of_slot[order]
    cell_neighbors[cell_sorted, slot_in_cell] = nbr_of_slot[order]
    cell_ne[:] = counts

    # ---- Order each cell's edges counter-clockwise ----------------------
    east, north = _tangent_basis(points)
    emid_for_cell = np.where(
        cell_edges[..., None] >= 0, mid[np.clip(cell_edges, 0, None)], 0.0
    )
    rel = emid_for_cell - points[:, None, :]
    x = np.einsum("nkj,nj->nk", rel, east)
    y = np.einsum("nkj,nj->nk", rel, north)
    ang = np.arctan2(y, x)
    ang[cell_edges == PAD] = np.inf  # padding sorts last
    perm = np.argsort(ang, axis=1)
    rows = np.arange(nc)[:, None]
    cell_edges = cell_edges[rows, perm]
    cell_edge_sign = cell_edge_sign[rows, perm]
    cell_neighbors = cell_neighbors[rows, perm]

    # ---- Cell -> vertex (CCW, aligned with the ordered edges) -----------
    # Vertex k of cell i sits between edge k and edge k+1; take, for each
    # ordered edge, the incident vertex that is CCW-ahead of the edge
    # midpoint (positive tangent-plane angle difference).
    ce = np.clip(cell_edges, 0, None)
    v_cand = edge_vertices[ce]                        # (nc, MAX_DEG, 2)
    vrel = vertex_xyz[v_cand] - points[:, None, None, :]
    vx = np.einsum("nkmj,nj->nkm", vrel, east)
    vy = np.einsum("nkmj,nj->nkm", vrel, north)
    vang = np.arctan2(vy, vx)
    eang = ang[rows, perm]
    eang_safe = np.where(np.isfinite(eang), eang, 0.0)
    diff = np.mod(vang - eang_safe[..., None], 2.0 * np.pi)
    ahead = np.argmin(np.where(diff <= np.pi, diff, np.inf), axis=2)
    cell_vertices = v_cand[rows, np.arange(MAX_DEG)[None, :], ahead]
    cell_vertices[cell_edges == PAD] = PAD

    # ---- Areas -----------------------------------------------------------
    # Voronoi cell area: fan of spherical triangles (cell, v_k, v_{k+1}).
    cv = cell_vertices.copy()
    # Replace pads by repeating the last valid vertex (degenerate, area 0).
    for k in range(1, MAX_DEG):
        bad = cv[:, k] == PAD
        cv[bad, k] = cv[bad, k - 1]
    v_now = vertex_xyz[cv]
    v_next = vertex_xyz[np.roll(cv, -1, axis=1)]
    tri_area = _spherical_triangle_area(
        np.broadcast_to(points[:, None, :], v_now.shape), v_now, v_next
    )
    cell_area = radius**2 * tri_area.sum(axis=1)

    vertex_area = radius**2 * _spherical_triangle_area(
        points[faces[:, 0]], points[faces[:, 1]], points[faces[:, 2]]
    )

    # ---- Vertex -> edge incidence with circulation signs -----------------
    vertex_edges = np.full((nv, 3), PAD, dtype=np.int64)
    vertex_edge_sign = np.zeros((nv, 3), dtype=np.float64)
    v_of_slot = edge_vertices.T.ravel()               # v1 slots then v2 slots
    e_of_slot = np.concatenate([np.arange(ne), np.arange(ne)])
    order = np.argsort(v_of_slot, kind="stable")
    v_sorted = v_of_slot[order]
    counts_v = np.bincount(v_sorted, minlength=nv)
    slot_v = np.arange(v_sorted.size) - np.repeat(
        np.concatenate([[0], np.cumsum(counts_v)[:-1]]), counts_v
    )
    vertex_edges[v_sorted, slot_v] = e_of_slot[order]
    # Circulation around the vertex: go around the dual triangle CCW.  The
    # dual edge of edge e runs c1 -> c2 (the +normal direction).  Its
    # contribution is + if that direction is CCW around the vertex, i.e. if
    # tangent x (dual direction) points along the outward radial... we use
    # the cross product of (c1 rel) and (c2 rel) against the vertex radial.
    vc = vertex_xyz[np.repeat(np.arange(nv)[:, None], 3, axis=1)]
    ve = np.clip(vertex_edges, 0, None)
    a1 = points[edge_cells[ve, 0]] - vc
    a2 = points[edge_cells[ve, 1]] - vc
    crossz = np.einsum("nkj,nkj->nk", np.cross(a1, a2), vc)
    vertex_edge_sign = np.where(crossz > 0.0, 1.0, -1.0)
    vertex_edge_sign[vertex_edges == PAD] = 0.0

    # ---- Velocity reconstruction operator -------------------------------
    # Per-cell least squares: find tangent vector U with n_e . U ~= u_e for
    # each incident edge, regularised along the radial direction.
    n_for_cell = np.where(
        cell_edges[..., None] >= 0, normal[np.clip(cell_edges, 0, None)], 0.0
    )                                                  # (nc, MAX_DEG, 3)
    radial = points[:, None, :]                        # (nc, 1, 3)
    A = np.concatenate([n_for_cell, radial], axis=1)   # (nc, MAX_DEG+1, 3)
    AtA = np.einsum("nki,nkj->nij", A, A)
    AtA += 1e-12 * np.eye(3)
    AtA_inv = np.linalg.inv(AtA)
    # recon[n, :, k] maps u at edge slot k to the velocity vector; the
    # final projector removes any residual radial component exactly.
    recon = np.einsum("nij,nkj->nik", AtA_inv, n_for_cell)
    proj = np.eye(3)[None, :, :] - points[:, :, None] * points[:, None, :]
    cell_recon = np.einsum("nij,njk->nik", proj, recon)

    lat = np.arcsin(np.clip(points[:, 2], -1.0, 1.0))
    lon = np.arctan2(points[:, 1], points[:, 0])

    mesh = Mesh(
        level=level,
        radius=radius,
        nc=nc,
        ne=ne,
        nv=nv,
        cell_xyz=points,
        vertex_xyz=vertex_xyz,
        edge_xyz=mid,
        cell_lat=lat,
        cell_lon=lon,
        edge_normal=normal,
        edge_tangent=tangent,
        de=de,
        le=le,
        cell_area=cell_area,
        vertex_area=vertex_area,
        edge_cells=edge_cells,
        edge_vertices=edge_vertices,
        cell_ne=cell_ne,
        cell_edges=cell_edges,
        cell_edge_sign=cell_edge_sign,
        cell_neighbors=cell_neighbors,
        cell_vertices=cell_vertices,
        vertex_cells=vertex_cells,
        vertex_edges=vertex_edges,
        vertex_edge_sign=vertex_edge_sign,
        cell_recon=cell_recon,
    )
    mesh.f_cell = 2.0 * OMEGA * np.sin(mesh.cell_lat)
    mesh.f_edge = 2.0 * OMEGA * np.sin(mesh.edge_lat)
    mesh.f_vertex = 2.0 * OMEGA * np.sin(mesh.vertex_lat)
    return mesh

"""Synthetic instance generators, affinity builders, and the point-set
file loader.

Two families of instances are produced: random weighted graphs (uniform
reference weights, Gaussian edge deformation, optional outlier nodes and
edge-density subsampling) and random 2-D point sets whose edge weights
are pairwise Euclidean distances. Both are pure functions of their
parameter struct, bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (AffinitySet, MatchConfig, Permutation, check_choice, check_count,
                   check_finite, check_real, upper_indices)
from .pairwise import solve_pairs

AFFINITY_KINDS = ("gauss", "len_angle")


@dataclass(frozen=True)
class SynthParams:
    """Knobs of the synthetic protocols; see the generator docstrings."""

    n_graphs: int
    inliers: int
    outliers: int = 0
    deform: float = 0.0        # std of the Gaussian edge/point disturbance
    density: float = 1.0       # probability an edge survives subsampling
    sigma2: float = 0.05 ** 2  # affinity kernel sensitivity (squared)
    coverage: float = 1.0      # fraction of pairs initialized by the solver
    seed: int = 0

    def __post_init__(self):
        for name, least in (("n_graphs", 2), ("inliers", 1), ("outliers", 0), ("seed", 0)):
            check_count(name, getattr(self, name), least)
        check_real("deform", self.deform, 0, math.inf, open_high=True)
        for name in ("density", "coverage"):
            check_real(name, getattr(self, name), 0, 1)
        check_real("sigma2", self.sigma2, 0, math.inf, open_low=True, open_high=True)

    @property
    def n_nodes(self):
        return self.inliers + self.outliers


@dataclass
class GraphInstance:
    """One weighted graph with ground-truth labeling to the reference
    ordering (inliers occupy reference slots 0..inlier_count-1)."""

    adjacency: np.ndarray
    inlier_count: int
    truth: Permutation
    coords: np.ndarray | None = None

    def __post_init__(self):
        a = np.asarray(self.adjacency, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency must be square")
        check_finite("adjacency", a)
        if self.coords is not None:
            self.coords = np.asarray(self.coords, dtype=float)
            if self.coords.shape != (a.shape[0], 2):
                raise ValueError(f"coords must have shape ({a.shape[0]}, 2), one 2-D point "
                                 f"per node, got {self.coords.shape}")
            check_finite("coords", self.coords)
        if not np.array_equal(a, a.T) or np.any(np.diag(a) != 0):
            raise ValueError("adjacency must be symmetric with zero diagonal")
        if not 0 <= self.inlier_count <= a.shape[0]:
            raise ValueError("inlier_count out of range")
        if self.truth.n != a.shape[0]:
            raise ValueError("truth permutation size must match node count")
        self.adjacency = a

    @property
    def n(self):
        return self.adjacency.shape[0]

    @property
    def inlier_rows(self):
        """Indices of this instance's nodes that are common inliers."""
        return np.flatnonzero(self.truth.perm < self.inlier_count)

    def padded(self, n_total):
        """Zero-padded copy with isolated dummy nodes appended; dummies map
        to fresh reference slots past the existing ones."""
        if n_total < self.n:
            raise ValueError("cannot pad to a smaller size")
        if n_total == self.n:
            return self
        if self.coords is not None:
            raise ValueError("cannot dummy-pad instances carrying coordinates")
        perm = np.concatenate([self.truth.perm, np.arange(self.n, n_total)])
        return GraphInstance(np.pad(self.adjacency, (0, n_total - self.n)),
                             self.inlier_count, Permutation(perm))


def _relabel(adjacency, coords, inlier_count, rng):
    """Shuffle node order; truth maps instance positions back to the
    reference ordering."""
    order = rng.permutation(adjacency.shape[0])
    adj = adjacency[np.ix_(order, order)]
    pts = coords[order] if coords is not None else None
    # instance node u is reference node order[u]
    return GraphInstance(adj, inlier_count, Permutation(order), pts)


def _instance(upper, coords, p, rng):
    """Instance of ``p.n_nodes`` nodes from its upper-triangle edge weights
    in row-major order: each edge survives with probability ``p.density``,
    negative weights become absent, and node order is shuffled."""
    w = np.maximum(upper * (rng.uniform(size=upper.size) < p.density), 0.0)
    adj = np.zeros((p.n_nodes, p.n_nodes))
    adj[upper_indices(p.n_nodes)] = w
    adj += adj.T
    return _relabel(adj, coords, p.inliers, rng)


def gen_random_graphs(p):
    """Random weighted graphs around a common reference.

    The reference assigns each inlier edge a uniform [0, 1] weight. Every
    instance perturbs surviving edges with N(0, deform) noise, grows
    ``outliers`` extra nodes with fresh uniform incident weights, drops
    each edge independently with probability 1 - density, clamps negative
    weights to zero, and finally shuffles node order (truth recorded).
    """
    rng = np.random.default_rng(p.seed)
    ref = rng.uniform(size=p.inliers * (p.inliers - 1) // 2)
    # pairs i < j < inliers, which come in the reference's row-major order
    inlier_pair = upper_indices(p.n_nodes)[1] < p.inliers

    instances = []
    for _ in range(p.n_graphs):
        w = np.empty(inlier_pair.size)
        w[inlier_pair] = ref + rng.normal(0.0, p.deform, size=ref.size)
        w[~inlier_pair] = rng.uniform(size=w.size - ref.size)
        instances.append(_instance(w, None, p, rng))
    return instances


def gen_random_points(p):
    """Random 2-D point sets around common reference inliers.

    Reference inliers are standard-normal points; each instance copies
    them with N(0, deform) jitter and adds ``outliers`` fresh
    standard-normal points. Edge weights are pairwise Euclidean
    distances, subsampled by ``density`` like the random-graph protocol.
    """
    rng = np.random.default_rng(p.seed)
    ref_pts = rng.normal(size=(p.inliers, 2))
    iu, ju = upper_indices(p.n_nodes)

    instances = []
    for _ in range(p.n_graphs):
        # a zero-row draw of outliers takes nothing from the stream
        pts = np.vstack([ref_pts + rng.normal(0.0, p.deform, size=(p.inliers, 2)),
                         rng.normal(size=(p.outliers, 2))])
        instances.append(_instance(np.linalg.norm(pts[iu] - pts[ju], axis=1), pts, p, rng))
    return instances


def delaunay_edges(coords):
    """Undirected edges of the Delaunay triangulation of 2-D points, as an
    (E, 2) array of rows (u, v) with u < v, sorted lexicographically."""
    from scipy.spatial import Delaunay, QhullError    # only len_angle sets need it

    coords = np.asarray(coords, dtype=float)
    if coords.shape[0] < 3:
        raise ValueError("Delaunay triangulation needs at least 3 points")
    try:
        tri = Delaunay(coords)
    except QhullError as exc:
        raise ValueError("Delaunay triangulation undefined "
                         "(fewer than 3 non-collinear points)") from exc
    sides = tri.simplices[:, [[0, 1], [0, 2], [1, 2]]].reshape(-1, 2)
    return np.unique(np.sort(sides, axis=1), axis=0)


def _delaunay_geometry(g):
    edges = np.asarray(delaunay_edges(g.coords), dtype=np.int64)
    d = g.coords[edges[:, 1]] - g.coords[edges[:, 0]]
    lengths = np.linalg.norm(d, axis=1)
    lengths = lengths / lengths.max()   # normalize by the largest edge length
    angles = np.arctan2(np.abs(d[:, 1]), np.abs(d[:, 0]))   # vs horizontal, [0, pi/2]
    both = np.concatenate([edges, edges[:, ::-1]])
    return both[:, 0], both[:, 1], np.tile(lengths, 2), np.tile(angles, 2)


def load_pointset(path, n_inliers=None, n_outliers=0, seed=0, max_frames=None):
    """Load annotated point frames from a plain-text file.

    Format: first line ``n_frames n_points``; then, per frame, n_points
    lines of ``x y``. If the file carries one extra line per frame it is
    read as that frame's annotation permutation (token u gives the
    annotation id of point line u); otherwise points are assumed to be
    listed in annotation order.

    With ``n_inliers`` set, that many annotation ids are chosen (seeded,
    shared across frames) as the common inliers and ``n_outliers`` ids
    are drawn per frame from the rest; node order is then shuffled with
    the truth recorded. Without it, every point is an inlier. With
    ``max_frames``, that many frames are picked (seeded), at most n_frames.
    Bad counts fail, named, before the file is read.
    """
    check_count("seed", seed)
    check_count("n_outliers", n_outliers)
    for name, count in (("n_inliers", n_inliers), ("max_frames", max_frames)):
        if count is not None:
            check_count(name, count, 1)
    if n_outliers and n_inliers is None:
        raise ValueError(f"n_outliers={n_outliers!r} needs n_inliers: without it every "
                         f"point is an inlier")
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    lines = [(idx + 1, ln) for idx, ln in enumerate(lines) if ln]
    if not lines:
        raise ValueError(f"{path}: line 1: empty point-set file")
    header_no, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise ValueError(f"{path}: line {header_no}: header must be 'n_frames n_points'")
    try:
        n_frames, n_points = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"{path}: line {header_no}: header must hold two integers") from None
    if n_frames < 1 or n_points < 1:
        raise ValueError(f"{path}: line {header_no}: frame and point counts must be positive")

    body = lines[1:]
    with_perms = len(body) == n_frames * (n_points + 1)
    if not with_perms and len(body) != n_frames * n_points:
        raise ValueError(f"{path}: line {body[-1][0] if body else header_no}: expected "
                         f"{n_frames * n_points} coordinate lines "
                         f"(or {n_frames * (n_points + 1)} with permutation lines), "
                         f"got {len(body)}")
    per_frame = n_points + (1 if with_perms else 0)
    frames = []
    for f in range(n_frames):
        chunk = body[f * per_frame:(f + 1) * per_frame]
        pts = np.empty((n_points, 2))
        for row, (no, ln) in enumerate(chunk[:n_points]):
            toks = ln.split()
            if len(toks) != 2:
                raise ValueError(f"{path}: line {no}: expected 'x y', got {len(toks)} column(s)")
            try:
                pts[row] = [float(toks[0]), float(toks[1])]
            except ValueError:
                raise ValueError(f"{path}: line {no}: non-numeric coordinate") from None
            if not np.isfinite(pts[row]).all():
                raise ValueError(f"{path}: line {no}: non-finite coordinate")
        if with_perms:
            no, ln = chunk[n_points]
            toks = ln.split()
            if len(toks) != n_points:
                raise ValueError(f"{path}: line {no}: permutation line must hold {n_points} ids")
            try:
                ann = Permutation([int(t) for t in toks])
            except ValueError:
                raise ValueError(f"{path}: line {no}: invalid annotation permutation") from None
            pts = pts[np.argsort(ann.perm)]     # row a holds annotation id a
        frames.append(pts)

    rng = np.random.default_rng(seed)
    if max_frames is not None and max_frames < n_frames:
        picked = np.sort(rng.choice(n_frames, size=max_frames, replace=False))
        frames = [frames[f] for f in picked]
    if n_inliers is None:
        n_inliers, n_outliers = n_points, 0
        inlier_ids = np.arange(n_points)
    else:
        if n_inliers + n_outliers > n_points:
            raise ValueError(f"{path}: cannot select more landmarks than annotated: "
                             f"{n_inliers} inliers + {n_outliers} outliers of {n_points}")
        inlier_ids = rng.choice(n_points, size=n_inliers, replace=False)
    if max_frames is not None and max_frames > n_frames:
        raise ValueError(f"{path}: {max_frames} frames asked for, the file holds {n_frames}")
    rest = np.setdiff1d(np.arange(n_points), inlier_ids)

    instances = []
    for pts in frames:
        out_ids = rng.choice(rest, size=n_outliers, replace=False) if n_outliers else \
            np.empty(0, dtype=np.int64)
        ids = np.concatenate([inlier_ids, out_ids]).astype(np.int64)
        sel = pts[ids]
        dist = np.linalg.norm(sel[:, None, :] - sel[None, :, :], axis=2)
        instances.append(_relabel(dist, sel, n_inliers, rng))
    return instances


def check_affinity_kind(kind, beta_w):
    """Raise ValueError, naming the value, unless ``kind`` is one of
    AFFINITY_KINDS and, for len_angle, beta_w lies in [0, 1]."""
    check_choice("affinity", kind, AFFINITY_KINDS)
    if kind == "len_angle":
        check_real("beta_w", beta_w, 0, 1)


def build_affinity_set(instances, sigma2, kind="gauss", beta_w=0.9):
    """Edge-kernel affinity set of a list of instances (see AffinitySet).

    ``gauss``: the affinity of edge (u, v) of one graph and edge (a, b) of
    another is exp(-(q_uv - q_ab)^2 / sigma2) for edge weights q, wherever
    both edges exist. Node-to-node (diagonal) affinities stay zero, so
    matching is driven purely by structure. Smaller instances are padded
    with isolated dummy nodes to the largest node count.

    ``len_angle``: on the Delaunay edges of coordinate instances of equal
    size, beta_w * K_len + (1 - beta_w) * K_ang: a Gaussian kernel on edge
    lengths (normalized per graph by the largest Delaunay edge) and one on
    each edge's absolute angle to the horizontal, both of bandwidth sigma2.
    """
    check_real("sigma2", sigma2, 0, math.inf, open_low=True, open_high=True)
    check_affinity_kind(kind, beta_w)
    if len(instances) < 2:
        raise ValueError(f"need at least 2 instances to match, got {len(instances)}")
    if kind == "gauss":
        n = max(g.n for g in instances)
        weights = np.stack([g.padded(n).adjacency for g in instances])
        return AffinitySet(weights != 0, [(1.0, weights, sigma2)])
    bare = [k for k, g in enumerate(instances) if g.coords is None]
    if bare:
        raise ValueError(f"instance {bare[0]} carries no coordinates, which len_angle needs")
    if len({g.n for g in instances}) != 1:
        raise ValueError("coordinate instances must have equal node counts")
    shape = (len(instances), instances[0].n, instances[0].n)
    mask = np.zeros(shape, dtype=bool)
    lengths = np.zeros(shape)
    angles = np.zeros(shape)
    for k, g in enumerate(instances):
        u, v, lens, angs = _delaunay_geometry(g)
        mask[k, u, v] = True
        lengths[k, u, v] = lens
        angles[k, u, v] = angs
    return AffinitySet(mask, [(beta_w, lengths, sigma2), (1.0 - beta_w, angles, sigma2)])


def truth_config(instances):
    """Ground-truth matching configuration: the consistent configuration
    through the instances' reference labelings."""
    if not instances:
        raise ValueError("truth_config needs at least 1 instance, got an empty list")
    return MatchConfig.from_basis(np.stack([g.truth.perm for g in instances]))


def init_config(kset, coverage, seed, solver=None):
    """Initial matching configuration over an affinity set.

    A seeded uniform choice of round(coverage * P) of the P graph pairs is
    solved with the pairwise solver; every remaining pair receives a
    uniformly random permutation. By default the chosen pairs are solved
    together by ``solve_pairs``; a ``solver`` callable is instead given
    each pair's ``kset.get(i, j)``.
    """
    check_real("coverage", coverage, 0, 1)
    rng = np.random.default_rng(check_count("seed", seed))
    iu, ju = upper_indices(kset.N)
    solved = np.zeros(len(iu), dtype=bool)
    solved[rng.choice(len(iu), size=int(round(coverage * len(iu))), replace=False)] = True
    upper = np.empty((len(iu), kset.n), dtype=np.int64)
    for p in np.flatnonzero(~solved):
        upper[p] = rng.permutation(kset.n)
    if solver is None:
        upper[solved] = solve_pairs(kset, iu[solved], ju[solved])
    else:
        for p in np.flatnonzero(solved):
            x = solver(kset.get(iu[p], ju[p]))
            if x.n != kset.n:
                raise ValueError(f"pair ({iu[p]}, {ju[p]}) has node count {x.n}, "
                                 f"expected {kset.n}")
            upper[p] = x.perm
    return MatchConfig._from_upper(kset.N, upper)


def save_instances(path, instances):
    """Dump instances to a .npz archive (stable round-trip format) at
    exactly ``path``, with no suffix appended. Raises ValueError for no
    instances, for a list in which some instances carry coordinates and
    others do not, or for one of unequal node counts."""
    if not instances:
        raise ValueError("need at least 1 instance to save, got 0")
    bare = [k for k, g in enumerate(instances) if g.coords is None]
    if 0 < len(bare) < len(instances):
        raise ValueError(f"instance {bare[0]} carries no coordinates, but others do")
    odd = [k for k, g in enumerate(instances) if g.n != instances[0].n]
    if odd:
        raise ValueError(f"instance {odd[0]} has {instances[odd[0]].n} nodes, instance 0 "
                         f"has {instances[0].n}: an archive holds equal node counts")
    with open(path, "wb") as fh:    # np.savez would append .npz to a path
        np.savez(fh, adjacency=np.stack([g.adjacency for g in instances]),
                 truth=np.stack([g.truth.perm for g in instances]),
                 inlier_counts=np.array([g.inlier_count for g in instances]),
                 coords=(np.empty(0) if bare else np.stack([g.coords for g in instances])))


def load_instances(path):
    """Instances from a ``save_instances`` archive. Raises ValueError
    naming the path for a file that is not an .npz archive, an archive
    missing one of its arrays, or arrays of different lengths."""
    try:
        data = np.load(path)
    except (EOFError, ValueError):      # empty, or neither .npy nor .npz
        data = None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValueError(f"{path}: not an .npz archive of instances")
    with data:
        missing = sorted({"adjacency", "truth", "inlier_counts", "coords"} - set(data.files))
        if missing:
            raise ValueError(f"{path}: archive lacks {', '.join(missing)}")
        arrays = {name: data[name] for name in ("adjacency", "truth", "inlier_counts")}
        if data["coords"].size:
            arrays["coords"] = data["coords"]
    lengths = {name: len(a) if a.ndim else 0 for name, a in arrays.items()}
    short = [f"{name} {count}" for name, count in lengths.items()
             if count != lengths["adjacency"]]
    if short:
        raise ValueError(f"{path}: arrays differ in length: adjacency "
                         f"{lengths['adjacency']}, {', '.join(short)}")
    coords = arrays.get("coords")
    return [GraphInstance(arrays["adjacency"][g], int(arrays["inlier_counts"][g]),
                          Permutation(arrays["truth"][g]),
                          coords[g] if coords is not None else None)
            for g in range(lengths["adjacency"])]

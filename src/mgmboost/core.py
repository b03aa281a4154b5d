"""Core types for multi-graph matching: permutations, affinity matrices,
matching configurations, and affinity-score arithmetic.

Conventions. A matching between two n-node graphs is a binary permutation
matrix X; vec(X) stacks X column-wise, so entry X[i, a] sits at vec index
a*n + i. The affinity matrix K follows the same indexing: K[a*n + i,
b*n + j] holds the affinity between edge (i, j) of the first graph and
edge (a, b) of the second, and the diagonal holds node-to-node affinities.
Distances between permutation matrices use the squared Frobenius norm
tr(D^T D), which equals twice the number of disagreeing rows; this keeps
every consistency metric inside (0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

# A pair's affinity matrix is a dense array at or below this node count
# (n^2 x n^2 <= 144^2), and above it when at least a third of its n^4
# entries are stored; otherwise it is CSR. See ``dense_by_fill``.
DENSE_NODE_LIMIT = 12

# Kernel blocks are built at most this many entries at a time (8 bytes
# each per temporary), so scoring many pairs in one batch holds a bounded
# amount of memory.
BLOCK_CHUNK_ENTRIES = 1 << 16


def dense_by_fill(n, nnz):
    """Whether an n^2 x n^2 affinity matrix with ``nnz`` stored entries is
    held dense: always for n <= DENSE_NODE_LIMIT, and above it when
    3 * nnz >= n^4, about where a CSR product K @ v stops being faster
    than a dense one at n = 24-32 (see the README)."""
    return n <= DENSE_NODE_LIMIT or 3 * int(nnz) >= n ** 4


def _index_array(values):
    """``values`` as a new int64 array; raises when a value is not a whole
    number, instead of truncating it."""
    a = np.asarray(values)
    if a.dtype.kind == "f":
        bad = ~(np.isfinite(a) & (a == np.trunc(a)))
        if bad.any():
            raise ValueError(f"index {float(a[bad].flat[0])!r} is not an integer")
    elif a.dtype.kind not in "biu":
        raise ValueError(f"indices must be integers, got dtype {a.dtype}")
    return np.array(a, dtype=np.int64)


def check_graph_index(k, n_graphs):
    """Raise IndexError unless 0 <= k < n_graphs; negative indices do not
    wrap around."""
    if not 0 <= k < n_graphs:
        raise IndexError(f"graph index {k} out of range 0..{n_graphs - 1}")
    return k


def _kept_count(keep, shape):
    """Rows kept per graph by ``keep``, a boolean array of the given shape:
    (N, n) as keep_masks returns it, or (n,) for one graph; shape[-1]
    when there is no mask. Raises ValueError for a mask of another shape
    or dtype, or one that does not keep the same positive number of rows
    in every graph."""
    if keep is None:
        return shape[-1]
    if np.shape(keep) != shape:
        raise ValueError(f"keep mask has shape {np.shape(keep)}, expected {shape}")
    if getattr(keep, "dtype", None) != bool:
        raise ValueError("keep mask must be a boolean array, got "
                         f"{getattr(keep, 'dtype', type(keep).__name__)}")
    counts = keep.sum(axis=-1).reshape(-1)
    if counts.min() == 0 or (counts != counts[0]).any():
        raise ValueError("keep mask must keep the same positive number of rows in "
                         f"every graph, got per-graph counts {counts.tolist()}")
    return int(counts[0])


class Permutation:
    """One-to-one node correspondence between two equal-size graphs.

    Stored compactly as an index vector: row ``u`` of the binary matrix
    has its single 1 in column ``perm[u]``. Immutable after construction.
    """

    __slots__ = ("perm",)

    def __init__(self, perm):
        p = _index_array(perm)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("permutation must be a non-empty 1-D index vector")
        n = p.size
        if p.min() < 0 or p.max() >= n or np.bincount(p, minlength=n).max() != 1:
            raise ValueError(f"indices {p.tolist()} are not a permutation of 0..{n - 1}")
        p.setflags(write=False)
        self.perm = p

    @classmethod
    def _wrap(cls, row):
        """Wrap a read-only row already known to be a permutation."""
        x = object.__new__(cls)
        x.perm = row
        return x

    @property
    def n(self):
        return self.perm.size

    @classmethod
    def identity(cls, n):
        return cls(np.arange(n))

    @classmethod
    def random(cls, n, rng):
        return cls(rng.permutation(n))

    @property
    def matrix(self):
        return np.eye(self.n)[self.perm]

    def compose(self, other):
        """Matrix product self @ other: chain this matching with ``other``."""
        if not isinstance(other, Permutation):
            raise TypeError("can only compose with another Permutation")
        if other.n != self.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")
        return Permutation(other.perm[self.perm])

    def inverse(self):
        return Permutation(np.argsort(self.perm))

    def __eq__(self, other):
        return isinstance(other, Permutation) and np.array_equal(self.perm, other.perm)

    def __hash__(self):
        return hash(self.perm.tobytes())

    def __reduce__(self):
        # unpickled arrays come back writeable; rebuilding keeps them read-only
        return Permutation, (self.perm,)

    def __repr__(self):
        return f"Permutation({self.perm.tolist()})"


class AffinityMatrix:
    """Non-negative symmetric n^2 x n^2 affinity matrix between two n-node
    graphs, the pairwise solver's input: a dense array or CSR, as
    ``dense_by_fill`` picks from n and the stored entries. Graphs of
    unequal sizes must first be padded with isolated dummy nodes. ``AffinitySet.get`` builds one for the solver; the
    boosting loop never holds one."""

    __slots__ = ("n", "data")

    def __init__(self, data):
        shape = np.shape(data)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError("affinity matrix must be square")
        n = int(round(shape[0] ** 0.5))
        if n * n != shape[0]:
            raise ValueError("affinity matrix size must be a perfect square")
        self.n = n
        given_sparse = sp.issparse(data)
        d = sp.csr_matrix(data, dtype=float) if given_sparse else np.asarray(data, dtype=float)
        if dense_by_fill(n, d.nnz if given_sparse else np.count_nonzero(d)) == given_sparse:
            d = d.toarray() if given_sparse else sp.csr_matrix(d)
        self.data = d
        vals = d.data if self.is_sparse else d.ravel()
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            at = bad[0]
            row, col = ((np.searchsorted(d.indptr, at, side="right") - 1, d.indices[at])
                        if self.is_sparse else divmod(at, d.shape[1]))
            raise ValueError(f"affinity entry ({row}, {col}) = {vals[at]} is not finite")
        if vals.size and vals.min() < 0:
            raise ValueError("affinities must be non-negative")
        if (d != d.T).sum():
            raise ValueError("affinity matrix must be symmetric")

    @classmethod
    def _wrap(cls, n, data):
        """Wrap a matrix built valid, in the representation
        ``dense_by_fill`` selects."""
        k = object.__new__(cls)
        k.n, k.data = n, data
        return k

    @property
    def is_sparse(self):
        return sp.issparse(self.data)

    def dense(self):
        return self.data.toarray() if self.is_sparse else np.asarray(self.data)


def _reject_first(bad, what, values=None):
    """Raise ValueError naming the first (graph, u, v) where the (N, n, n)
    boolean ``bad`` holds, with the entry and its mirror from ``values``."""
    if np.count_nonzero(bad):
        g, u, v = (int(x) for x in np.argwhere(bad)[0])
        where = f"{what} at (graph, u, v) = ({g}, {u}, {v})"
        if values is not None:
            where += f": {float(values[g, u, v])!r}, mirror {float(values[g, v, u])!r}"
        raise ValueError(where)


class AffinitySet:
    """Edge-kernel affinities between every pair of N graphs on n nodes.

    No n^2 x n^2 matrix is stored. Per graph the set holds an (n, n) edge
    mask, and per kernel channel c an (n, n) edge attribute a_c with a
    weight w_c and a bandwidth s_c. With graph i as the row graph, the
    affinity matrix of the pair (i, j) has the entry

        K[a*n + u, b*n + v] = sum_c w_c exp(-(a_c[i, u, v] - a_c[j, a, b])^2 / s_c)

    where edge (u, v) exists in graph i and edge (a, b) in graph j, and 0
    elsewhere, the diagonal included. A matching p of the pair therefore
    touches only the n x n block B[u, v] = K[p(u)*n + u, p(v)*n + v],
    which ``kernel_sums`` computes from a_c[i] and the gathered
    a_c[j][p][:, p] and sums: its sum is the score vec(X)^T K vec(X) and
    its row sums are node affinities (Zhou & De la Torre, "Factorized Graph
    Matching", CVPR 2012). ``get`` builds one pair's K for the pairwise
    solver and ``dense_stack`` many pairs' at once, evaluating the kernel
    once per distinct entry; neither keeps it.

    The constructor rejects a mask edge (u, u) or one without its mirror
    (v, u), and an attribute that is not finite or not symmetric on an
    edge, naming the first bad (graph, u, v): the solver's K must be
    symmetric.
    """

    def __init__(self, mask, channels):
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 3 or mask.shape[1] != mask.shape[2]:
            raise ValueError(f"edge mask must have shape (N, n, n), got {mask.shape}")
        self.N, self.n = mask.shape[0], mask.shape[1]
        if np.count_nonzero(mask.diagonal(0, 1, 2)):
            _reject_first(mask & np.eye(self.n, dtype=bool), "edge mask has a self-loop")
        _reject_first(mask != mask.transpose(0, 2, 1), "edge mask is not symmetric")
        self._mask = mask
        self._edges = mask.sum(axis=(1, 2)).tolist()
        # Per channel (weight, bandwidth), and the attribute twice: as the
        # row graph's, +inf off the edges, and as the column graph's, -inf
        # off the edges, so a missing edge on either side makes the
        # difference +inf and the kernel exactly 0.
        self._channels = []
        self._own = []
        self._other = []
        for c, (weight, attr, sigma2) in enumerate(channels):
            attr = np.asarray(attr, dtype=float)
            if attr.shape != mask.shape:
                raise ValueError(f"edge attributes have shape {attr.shape}, "
                                 f"expected {mask.shape}")
            # +inf off the (symmetric) edges: finite exactly on the edges and
            # symmetric exactly when the attribute is, on the edges
            own = np.where(mask, attr, np.inf)
            _reject_first(np.isfinite(own) != mask, f"edge attribute {c} is not finite", attr)
            _reject_first(own != own.transpose(0, 2, 1),
                          f"edge attribute {c} is not symmetric", attr)
            self._channels.append((float(weight), float(sigma2)))
            self._own.append(own)
            self._other.append(np.where(mask, attr, -np.inf))

    def pairs(self):
        """Graph pairs (i, j) with i < j in row-major order."""
        return _upper_pairs(self.N)

    def _kernel(self, own, other):
        """Kernel values of row-graph attributes ``own`` against
        column-graph attributes ``other``, one array per channel, the two
        broadcast together."""
        out = None
        for (weight, sigma2), a, b in zip(self._channels, own, other):
            k = a - b
            np.square(k, out=k)
            np.divide(k, -sigma2, out=k)   # = -(d^2) / sigma2, bit for bit
            np.exp(k, out=k)
            if weight != 1.0:
                k *= weight
            if out is None:
                out = k
            else:
                out += k
        return out

    def is_dense(self, i, j):
        """Whether the pair's K is held dense: ``dense_by_fill`` on its
        |E_i| * |E_j| stored entries."""
        return dense_by_fill(self.n, self._edges[i] * self._edges[j])

    @cached_property
    def _dense_index(self):
        """The m + 1 flat attribute indices ``dense_stack`` gathers per
        graph, and the (n^2, n^2) map of K[a*n + u, b*n + v] to
        s(a, b) * (m + 1) + s(u, v). Slot s numbers the m = n(n-1)/2 node
        pairs u < v in either order and gives u = v slot m, gathered at
        (0, 0), off the edges. intp, since ``take`` would convert narrower
        indices on every call."""
        n = self.n
        r, c = np.triu_indices(n, 1)
        m = r.size
        slot = np.full((n, n), m, dtype=np.intp)
        slot[r, c] = slot[c, r] = np.arange(m)
        index = slot[:, None, :, None] * (m + 1) + slot[None, :, None, :]   # [a, u, b, v]
        return np.append(r * n + c, 0), index.reshape(n * n, n * n)

    def dense_stack(self, i, j):
        """K of the pairs (i[b], j[b]) as one (B, n^2, n^2) array, with
        graph i[b] as the row graph. Both attributes are symmetric, so
        K[a*n + u, b*n + v] depends only on {u, v} and {a, b}, and every
        u = v or a = b entry is the kernel at a diagonal attribute, off
        the edges, like any missing edge. So the kernel runs on (m + 1)^2
        slot pairs instead of n^4 entries, and one ``take`` through
        ``_dense_index`` expands them; the bytes equal those of the full
        broadcast of a_c[i, u, v] against a_c[j, a, b]."""
        gather, index = self._dense_index
        i, j = np.reshape(i, (-1, 1)), np.reshape(j, (-1, 1))
        vals = self._kernel([a.reshape(self.N, -1)[i, gather][:, None, :] for a in self._own],
                            [a.reshape(self.N, -1)[j, gather][:, :, None] for a in self._other])
        return vals.reshape(len(i), -1).take(index, axis=1)

    def get(self, i, j):
        """K of the pair (i, j) with graph i as the row graph, dense or CSR
        as ``is_dense`` picks; CSR is built from the edge lists of both
        graphs. Built on every call and kept nowhere."""
        check_graph_index(i, self.N)
        check_graph_index(j, self.N)
        if i == j:
            raise ValueError("affinity is defined between distinct graphs")
        n, size = self.n, self.n * self.n
        if self.is_dense(i, j):
            return AffinityMatrix._wrap(n, self.dense_stack([i], [j])[0])
        ui, vi = np.nonzero(self._mask[i])
        uj, vj = np.nonzero(self._mask[j])
        vals = self._kernel([a[i, ui, vi][None, :] for a in self._own],
                            [a[j, uj, vj][:, None] for a in self._other]).ravel()
        rows = (uj[:, None] * n + ui[None, :]).ravel()
        cols = (vj[:, None] * n + vi[None, :]).ravel()
        k = sp.coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()
        return AffinityMatrix._wrap(n, k)

    def kernel_sums(self, i, j, perms, rows=None, axis=(2, 3)):
        """Sums of candidate matchings' kernel blocks over ``axis``.

        ``perms`` is a (P, A, n) stack of index vectors: A candidates for
        each of P pairs (i[p], j[p]), where ``i`` and ``j`` are length-P
        arrays of graph indices (or single indices). ``rows`` selects the
        kept rows of each pair's row graph, ascending: all of them by
        default, one (m,) index vector for every pair, or a (P, m) array.
        Block entry [p, a, u, v] is the K entry linking rows r[u] and r[v]
        of the candidate. The default ``axis`` gives each candidate's
        score, a (P, A) array; ``axis=3`` its per-row node affinities, a
        (P, A, m) array. Blocks are built and summed in pair order, at
        most BLOCK_CHUNK_ENTRIES entries (or one pair's) at a time.
        """
        n = self.n
        perms = np.asarray(perms, dtype=np.int64)
        pairs, count = perms.shape[:2]
        if rows is None:
            r = np.broadcast_to(np.arange(n), (pairs, n))
            picked = perms
        else:
            r = np.broadcast_to(np.asarray(rows, dtype=np.int64), (pairs, np.shape(rows)[-1]))
            picked = np.take_along_axis(perms, r[:, None, :], axis=2)
        own_graph = np.broadcast_to(np.reshape(i, (-1, 1)) * (n * n), (pairs, 1))
        other_graph = np.broadcast_to(np.reshape(j, (-1, 1, 1)) * (n * n), (pairs, 1, 1))
        step = max(1, BLOCK_CHUNK_ENTRIES // max(1, count * r.shape[1] ** 2))
        sums = []
        for s in range(0, pairs, step):
            own_flat = _flat_pairs(r[s:s + step], n, own_graph[s:s + step])[:, None]
            other_flat = _flat_pairs(picked[s:s + step], n, other_graph[s:s + step])
            sums.append(self._kernel([a.take(own_flat) for a in self._own],
                                     [a.take(other_flat) for a in self._other]).sum(axis=axis))
        return np.concatenate(sums)


def _flat_pairs(nodes, n, offset):
    """Flat indices offset + u*n + v of every pair of nodes (u, v) of each
    row of ``nodes``: shape (..., m) becomes (..., m, m)."""
    return (nodes * n + offset)[..., :, None] + nodes[..., None, :]


def pair_scores(cfg, kset):
    """Raw scores vec(X_ij)^T K_ij vec(X_ij) of every stored pair i < j,
    in row-major order, computed as one batch."""
    iu, ju = np.triu_indices(cfg.N, 1)
    return kset.kernel_sums(iu, ju, cfg.perm_table()[iu, ju][:, None])[:, 0]


class MatchConfig:
    """All pairwise matchings over N graphs on a common node count n.

    Held as one read-only (N, N, n) int64 index table whose row [i, j] is
    X_ij. Only the upper triangle i < j is read from the caller; X_ji is
    filled in as the inverse (transpose) and X_ii as the identity, so the
    symmetry invariant cannot be broken. Immutable after construction.
    """

    __slots__ = ("N", "n", "_perms")

    def __init__(self, n_graphs, n_nodes, pairs):
        rows = []
        for i, j in _upper_pairs(n_graphs):
            try:
                x = pairs[(i, j)]
            except KeyError:
                raise ValueError(f"missing matching for pair ({i}, {j})") from None
            if x.n != n_nodes:
                raise ValueError(f"pair ({i}, {j}) has node count {x.n}, expected {n_nodes}")
            rows.append(x.perm)
        self._fill(n_graphs, np.array(rows, dtype=np.int64).reshape(-1, n_nodes))

    def _fill(self, n_graphs, upper):
        """Build the table from validated upper-triangle rows, listed in
        row-major (i, j) order."""
        if n_graphs < 2:
            raise ValueError("need at least two graphs")
        n = upper.shape[1]
        iu, ju = np.triu_indices(n_graphs, 1)
        ident = np.arange(n)
        inv = np.empty_like(upper)
        np.put_along_axis(inv, upper, np.broadcast_to(ident, upper.shape), axis=1)
        t = np.empty((n_graphs, n_graphs, n), dtype=np.int64)
        t[np.arange(n_graphs), np.arange(n_graphs)] = ident
        t[iu, ju] = upper
        t[ju, iu] = inv
        t.setflags(write=False)
        self.N = n_graphs
        self.n = n
        self._perms = t

    @classmethod
    def identity(cls, n_graphs, n_nodes):
        ident = Permutation.identity(n_nodes)
        return cls(n_graphs, n_nodes, dict.fromkeys(_upper_pairs(n_graphs), ident))

    @classmethod
    def random(cls, n_graphs, n_nodes, rng):
        return cls(n_graphs, n_nodes, {(i, j): Permutation.random(n_nodes, rng)
                                       for i, j in _upper_pairs(n_graphs)})

    @classmethod
    def from_table(cls, table):
        """Build from an (N, N, n) index table, reading the upper triangle;
        every row there must be a permutation of 0..n-1."""
        t = np.asarray(table)
        if t.ndim != 3 or t.shape[0] != t.shape[1] or t.shape[2] == 0:
            raise ValueError(f"table must have shape (N, N, n) with n >= 1, got {t.shape}")
        n_graphs, _, n = t.shape
        upper = _index_array(t[np.triu_indices(n_graphs, 1)])
        bad = (np.sort(upper, axis=1) != np.arange(n)).any(axis=1)
        if bad.any():
            i, j = _upper_pairs(n_graphs)[int(np.argmax(bad))]
            raise ValueError(f"pair ({i}, {j}) indices {t[i, j].tolist()} "
                             f"are not a permutation of 0..{n - 1}")
        cfg = cls.__new__(cls)
        cfg._fill(n_graphs, upper)
        return cfg

    @classmethod
    def from_basis(cls, basis):
        """Exactly cycle-consistent configuration through a common
        reference: basis[k] is an index vector mapping graph k's nodes to
        the reference, and X_ij is basis[i] followed by the inverse of
        basis[j]."""
        basis = np.asarray(basis)
        inv = np.argsort(basis, axis=1)
        return cls.from_table(inv[np.arange(basis.shape[0])[None, :, None],
                                  basis[:, None, :]])

    def get(self, i, j):
        check_graph_index(i, self.N)
        check_graph_index(j, self.N)
        return Permutation._wrap(self._perms[i, j])

    def pairs(self):
        """Iterate (i, j, X_ij) over the upper triangle."""
        for i, j in _upper_pairs(self.N):
            yield i, j, Permutation._wrap(self._perms[i, j])

    def perm_table(self):
        """The read-only (N, N, n) index table, inverses and identities
        included; the same array on every call."""
        return self._perms

    def __eq__(self, other):
        return (isinstance(other, MatchConfig) and self.N == other.N
                and self.n == other.n and np.array_equal(self._perms, other._perms))

    def __hash__(self):
        return hash((self.N, self.n, self._perms.tobytes()))

    def __reduce__(self):
        return MatchConfig.from_table, (self._perms,)


def _upper_pairs(n_graphs):
    """Pairs (i, j) with i < j in row-major order."""
    return [(i, j) for i in range(n_graphs - 1) for j in range(i + 1, n_graphs)]


@dataclass(frozen=True)
class ScoreNormalizer:
    """Constant positive denominator turning raw affinity scores into
    normalized ones: the maximum initial pairwise score, fixed once."""

    value: float

    def __post_init__(self):
        if not self.value > 0:
            raise ValueError("normalizer must be positive (all-zero affinities are degenerate)")

    @classmethod
    def from_initial(cls, cfg, kset):
        return cls(float(pair_scores(cfg, kset).max()))


def affinity_score(x, k, keep=None):
    """Raw score vec(X)^T K vec(X) of a permutation or index vector against
    an explicit affinity matrix, gathered from the entries X touches. With
    ``keep``, the row graph's (n,) boolean row of keep_masks, only
    affinities among kept rows count."""
    p = (x if isinstance(x, Permutation) else Permutation(x)).perm
    if p.shape != (k.n,):
        raise ValueError(f"permutation has {p.size} nodes but affinity matrix expects {k.n}")
    _kept_count(keep, (k.n,))
    rows = np.arange(k.n) if keep is None else np.flatnonzero(keep)
    idx = p[rows] * k.n + rows
    return float(k.data[idx][:, idx].sum())


def total_score(cfg, kset):
    """Sum of raw pairwise affinity scores over the upper triangle, added
    in row-major pair order."""
    return float(sum(pair_scores(cfg, kset).tolist()))

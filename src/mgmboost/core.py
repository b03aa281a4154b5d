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

import numpy as np
import scipy.sparse as sp

# Above this node count the affinity matrix is kept in CSR form; at or
# below it a dense array is faster and still small (n^2 x n^2 <= 144^2).
DENSE_NODE_LIMIT = 12


def _index_array(values):
    """``values`` as a new int64 array; raises when a value is not a whole
    number, instead of truncating it."""
    a = np.asarray(values)
    if a.dtype.kind == "f":
        bad = ~(np.isfinite(a) & (a == np.trunc(a)))
        if bad.any():
            raise ValueError(f"index {a[bad].flat[0]!r} is not an integer")
    elif a.dtype.kind not in "biu":
        raise ValueError(f"indices must be integers, got dtype {a.dtype}")
    return np.array(a, dtype=np.int64)


def check_graph_index(k, n_graphs):
    """Raise IndexError unless 0 <= k < n_graphs; negative indices do not
    wrap around."""
    if not 0 <= k < n_graphs:
        raise IndexError(f"graph index {k} out of range 0..{n_graphs - 1}")
    return k


def check_node_index(u, n_nodes):
    """Raise IndexError unless 0 <= u < n_nodes; negative indices do not
    wrap around."""
    if not 0 <= u < n_nodes:
        raise IndexError(f"node index u={u} out of range 0..{n_nodes - 1}")
    return u


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

    @classmethod
    def from_matrix(cls, m):
        """Build from an n x n binary matrix, validating that it is a
        permutation matrix (exactly one 1 per row and column)."""
        m = np.asarray(m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        if not np.isin(m, (0, 1)).all():
            raise ValueError("matrix entries must be 0 or 1")
        if not (m.sum(axis=0) == 1).all() or not (m.sum(axis=1) == 1).all():
            raise ValueError("every row and column must sum to 1")
        return cls(np.argmax(m, axis=1))

    @property
    def matrix(self):
        m = np.zeros((self.n, self.n))
        m[np.arange(self.n), self.perm] = 1.0
        return m

    def compose(self, other):
        """Matrix product self @ other: chain this matching with ``other``."""
        if not isinstance(other, Permutation):
            raise TypeError("can only compose with another Permutation")
        if other.n != self.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")
        return Permutation(other.perm[self.perm])

    def inverse(self):
        inv = np.empty(self.n, dtype=np.int64)
        inv[self.perm] = np.arange(self.n)
        return Permutation(inv)

    def __eq__(self, other):
        return isinstance(other, Permutation) and np.array_equal(self.perm, other.perm)

    def __hash__(self):
        return hash(self.perm.tobytes())

    def __reduce__(self):
        # unpickled arrays come back writeable; rebuilding keeps them read-only
        return Permutation, (self.perm,)

    def __repr__(self):
        return f"Permutation({self.perm.tolist()})"


def compose(x_ik, x_kj):
    """Chain two matchings: the product X_ik @ X_kj, itself a permutation."""
    return x_ik.compose(x_kj)


def _vec_indices(perm, n):
    """vec indices of the n unit entries of the permutation matrix."""
    return perm * n + np.arange(n)


def _csr_submatrix_sum(mat, rows, cols, per_row=False):
    """Sum of mat[rows][:, cols] for a CSR matrix without building the
    intermediate slices (scipy's fancy indexing dominates the boosting
    hot loop otherwise). ``cols`` need not be sorted."""
    starts = mat.indptr[rows]
    counts = mat.indptr[rows + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.zeros(rows.size) if per_row else 0.0
    flat = np.repeat(starts, counts) + (np.arange(total)
                                        - np.repeat(np.cumsum(counts) - counts, counts))
    entry_cols = mat.indices[flat]
    vals = mat.data[flat]
    cols_sorted = np.sort(cols)
    pos = np.searchsorted(cols_sorted, entry_cols)
    pos[pos == cols_sorted.size] = 0
    member = cols_sorted[pos] == entry_cols
    if not per_row:
        return float(vals[member].sum())
    row_of_entry = np.repeat(np.arange(rows.size), counts)
    return np.bincount(row_of_entry[member], weights=vals[member], minlength=rows.size)


class AffinityMatrix:
    """Non-negative symmetric affinity matrix between two n-node graphs.

    Sized n^2 x n^2; stored dense for n <= DENSE_NODE_LIMIT and CSR above,
    unless ``storage`` forces one representation. Graphs of unequal sizes
    must be padded with isolated dummy nodes before construction, so a
    single common ``n`` is stored.
    """

    __slots__ = ("n", "data", "is_sparse")

    def __init__(self, data, storage=None, validate=True):
        shape = data.shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError("affinity matrix must be square")
        n = int(round(shape[0] ** 0.5))
        if n * n != shape[0]:
            raise ValueError("affinity matrix size must be a perfect square")
        self.n = n
        if storage is None:
            storage = "dense" if n <= DENSE_NODE_LIMIT else "sparse"
        if storage == "dense":
            self.data = np.asarray(data.toarray() if sp.issparse(data) else data, dtype=float)
            self.is_sparse = False
        elif storage == "sparse":
            self.data = sp.csr_matrix(data, dtype=float)
            self.is_sparse = True
        else:
            raise ValueError(f"unknown storage {storage!r}")
        if validate:
            self._validate()

    def _validate(self):
        if self.is_sparse:
            if self.data.nnz and self.data.data.min() < 0:
                raise ValueError("affinities must be non-negative")
            if (self.data != self.data.T).nnz != 0:
                raise ValueError("affinity matrix must be symmetric")
        else:
            if self.data.size and self.data.min() < 0:
                raise ValueError("affinities must be non-negative")
            if not np.array_equal(self.data, self.data.T):
                raise ValueError("affinity matrix must be symmetric")

    @property
    def shape(self):
        return (self.n * self.n, self.n * self.n)

    def dense(self):
        return self.data.toarray() if self.is_sparse else np.asarray(self.data)

    def matvec(self, v):
        return self.data @ v

    def _perm_array(self, x):
        p = x.perm if isinstance(x, Permutation) else np.asarray(x, dtype=np.int64)
        if p.size != self.n:
            raise ValueError(f"permutation size {p.size} does not match n={self.n}")
        return p

    def quad_form(self, x):
        """vec(X)^T K vec(X), gathering only the n x n submatrix touched by
        the n unit entries of X instead of forming dense n^2 vectors."""
        idx = _vec_indices(self._perm_array(x), self.n)
        if self.is_sparse:
            return _csr_submatrix_sum(self.data, idx, idx)
        return float(self.data[idx[:, None], idx[None, :]].sum())

    def quad_form_masked(self, x, keep):
        """Quad form of X with all rows outside ``keep`` zeroed out."""
        p = self._perm_array(x)
        rows = np.flatnonzero(np.asarray(keep, dtype=bool))
        idx = p[rows] * self.n + rows
        if idx.size == 0:
            return 0.0
        if self.is_sparse:
            return _csr_submatrix_sum(self.data, idx, idx)
        return float(self.data[idx[:, None], idx[None, :]].sum())

    def quad_form_batch(self, perms):
        """Quad forms for a (C, n) stack of permutation index vectors."""
        perms = np.asarray(perms, dtype=np.int64)
        idx = perms * self.n + np.arange(self.n)[None, :]
        if not self.is_sparse:
            return self.data[idx[:, :, None], idx[:, None, :]].sum(axis=(1, 2))
        return np.array([_csr_submatrix_sum(self.data, r, r) for r in idx])

    def node_sums(self, x):
        """Per-row contributions: entry u is the affinity mass between the
        single match of node u and every match of X (row-masked quad form)."""
        return self._index_row_sums(_vec_indices(self._perm_array(x), self.n))

    def col_node_sums(self, y):
        """Node sums of the column graph, equal to
        ``commuted().node_sums(y)`` bit for bit, for the matching y from
        column-graph nodes to row-graph nodes (the transpose of X). Reads
        this orientation at vec indices u*n + y[u], the entries the
        commuted matrix holds, so no commuted copy is built."""
        return self._index_row_sums(np.arange(self.n) * self.n + self._perm_array(y))

    def _index_row_sums(self, idx):
        """Row sums of the submatrix at the vec indices idx, in idx order."""
        if self.is_sparse:
            return _csr_submatrix_sum(self.data, idx, idx, per_row=True)
        return self.data[idx[:, None], idx[None, :]].sum(axis=1)

    def commuted(self):
        """The same affinities with the two graphs' roles swapped."""
        n = self.n
        x = np.arange(n * n)
        sigma = (x % n) * n + x // n
        if self.is_sparse:
            return AffinityMatrix(self.data[sigma][:, sigma], storage="sparse", validate=False)
        return AffinityMatrix(self.data[np.ix_(sigma, sigma)], storage="dense", validate=False)


class AffinitySet:
    """Affinity matrices for every unordered pair of N graphs.

    ``get(i, j)`` returns the matrix oriented with graph i as the row
    graph; the swapped orientation is derived (and cached) on demand.
    """

    def __init__(self, n_graphs, mats):
        self.N = n_graphs
        self.n = None
        self._mats = {}
        self._swapped = {}
        for (i, j), k in mats.items():
            if not (0 <= i < j < n_graphs):
                raise ValueError(f"bad pair ({i}, {j})")
            if self.n is None:
                self.n = k.n
            elif k.n != self.n:
                raise ValueError("all affinity matrices must share one node count")
            self._mats[(i, j)] = k
        for i in range(n_graphs - 1):
            for j in range(i + 1, n_graphs):
                if (i, j) not in self._mats:
                    raise ValueError(f"missing affinity matrix for pair ({i}, {j})")

    def get(self, i, j):
        if i == j:
            raise ValueError("affinity is defined between distinct graphs")
        if i < j:
            return self._mats[(i, j)]
        if (i, j) not in self._swapped:
            self._swapped[(i, j)] = self._mats[(j, i)].commuted()
        return self._swapped[(i, j)]

    def pairs(self):
        return sorted(self._mats)


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
        best = max(kset.get(i, j).quad_form(x) for i, j, x in cfg.pairs())
        return cls(best)


def affinity_score(x, k):
    """Raw matching score vec(X)^T K vec(X) of a permutation against an
    affinity matrix; non-negative since K is."""
    if x.n != k.n:
        raise ValueError(f"permutation has {x.n} nodes but affinity matrix expects {k.n}")
    return k.quad_form(x)


def normalized_score(x, k, norm):
    """Affinity score divided by the fixed initial-score normalizer."""
    return affinity_score(x, k) / norm.value


def total_score(cfg, kset):
    """Sum of raw pairwise affinity scores over the upper triangle."""
    return float(sum(kset.get(i, j).quad_form(x) for i, j, x in cfg.pairs()))

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

import math
import numbers
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

# The solver's budget: ``AffinitySet._stacks`` builds dense K in stacks
# of at most this many entries (1 MiB of float64), or one pair's K when
# it alone is larger, and ``pairwise.solve_pairs`` discretizes profit
# grids in batches of at most this many entries; ``dense_by_fill`` holds
# K dense wherever a stack takes two.
STACK_ENTRIES = 1 << 17

# The working-set budget of scoring and boosting: kernel blocks are built,
# a sweep's pairs evaluated and spectral synchronization's products
# gathered in batches whose arrays hold at most this many entries each
# (8 bytes each, 256 KiB), or one block's, pair's or row graph's when it
# alone is larger. So memory stays bounded and a batch's temporaries stay
# in a 2 MiB L2 cache: sweep groups of 2^16 and 2^17 entries were slower.
BLOCK_CHUNK_ENTRIES = 1 << 15


def dense_by_fill(n, nnz):
    """Whether an n^2 x n^2 affinity matrix with ``nnz`` stored entries is
    held dense: whenever a STACK_ENTRIES stack holds two of them (n <= 16
    at 2^17), where the stacked dense solve beats CSR one pair at a time,
    and above that when 3 * nnz >= n^4, about where a CSR product K @ v
    stops being faster than a dense one at n = 24-32 (see the README)."""
    return STACK_ENTRIES // n ** 4 >= 2 or 3 * int(nnz) >= n ** 4


def issparse(x):
    """``scipy.sparse.issparse(x)``, without loading ``scipy.sparse``: no
    sparse matrix exists before it is loaded (see the README)."""
    sp = sys.modules.get("scipy.sparse")
    return sp is not None and sp.issparse(x)


def _first_bool(values):
    """The first boolean in ``values``, nested lists and arrays included,
    or None: np.asarray reads True as 1 once a list mixes it with numbers."""
    if isinstance(values, np.ndarray):
        return bool(values.flat[0]) if values.dtype == bool and values.size else None
    if isinstance(values, (list, tuple)):
        return next((b for b in map(_first_bool, values) if b is not None), None)
    return bool(values) if isinstance(values, (bool, np.bool_)) else None


def _reject_bool(values):
    """Raise ValueError naming the first boolean in ``values``, if any."""
    flag = _first_bool(values)
    if flag is not None:
        raise ValueError(f"index {flag} is a boolean, not an integer")


def _index_array(values):
    """``values`` as a new int64 array; raises when a value is not a whole
    number, instead of truncating it, or is a boolean anywhere, instead of
    reading a mask or a flag as indices."""
    a = np.asarray(values)
    _reject_bool(values)
    if a.dtype.kind == "f":
        bad = ~(np.isfinite(a) & (a == np.trunc(a)))
        if bad.any():
            raise ValueError(f"index {float(a[bad].flat[0])!r} is not an integer")
    elif a.dtype.kind not in "iu":
        raise ValueError(f"indices must be integers, got dtype {a.dtype}")
    return np.array(a, dtype=np.int64)


def _check_permutations(rows, where=lambda r: ""):
    """Raise ValueError naming, by the prefix ``where(r)``, the first row r
    of the (R, n) index array ``rows`` that is not a permutation of 0..n-1."""
    bad = np.sort(rows, axis=1) != np.arange(rows.shape[1])
    if bad.any():
        r = int(np.argmax(bad.any(axis=1)))
        raise ValueError(f"{where(r)}indices {rows[r].tolist()} "
                         f"are not a permutation of 0..{rows.shape[1] - 1}")


@lru_cache(maxsize=64)
def upper_indices(n_graphs):
    """``np.triu_indices(n_graphs, 1)``, the pairs i < j in row-major
    order, as two read-only arrays built once per graph or node count."""
    iu, ju = np.triu_indices(n_graphs, 1)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


@lru_cache(maxsize=64)
def slot_map(count):
    """The slots of a symmetric (count, count) block with a diagonal off
    the edges: slot s < m numbers the m = count(count-1)/2 node pairs
    u < v in row-major order, and slot m stands for every u = v and sits
    at (0, 0). Returns the slots' rows and columns, (m + 1,) each, and the
    (count, count) map of [u, v] to its slot, so ``vals.take(slot)``
    expands the m + 1 slot values into the block. Read-only intp arrays,
    built once per count, since ``take`` would convert narrower indices
    on every call."""
    r, c = np.triu_indices(count, 1)
    m = r.size
    slot = np.full((count, count), m, dtype=np.intp)
    slot[r, c] = slot[c, r] = np.arange(m)
    su, sv = np.append(r, 0).astype(np.intp), np.append(c, 0).astype(np.intp)
    for a in (su, sv, slot):
        a.setflags(write=False)
    return su, sv, slot


def check_count(name, value, least=0):
    """Raise ValueError, naming the argument and its value, unless
    ``value`` is an integer (Python or numpy, not a float or a bool) >=
    ``least``; numpy scalars are shown as the Python number."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer))
                                       and value >= least):
        shown = value.item() if isinstance(value, np.generic) else value
        raise ValueError(f"{name} must be an integer >= {least}, got {shown!r}")
    return value


def check_real(name, value, low, high, open_low=False, open_high=False):
    """``value`` as a float; raises ValueError, naming the argument and its
    value, unless it is a real number (Python or numpy, not a bool or a
    string) from ``low`` to ``high``, an end excluded when its flag is set.
    NaN lies in no interval. A ``high`` of inf reads "must be >= low", and
    "must be finite and >= low" when excluded; numpy scalars are shown as
    the Python number."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    v = float(value) if real else math.nan
    if not ((low < v if open_low else low <= v) and (v < high if open_high else v <= high)):
        if high == math.inf:
            want = f"be {'finite and ' if open_high else ''}{'>' if open_low else '>='} {low}"
        else:
            want = f"lie in {'(' if open_low else '['}{low}, {high}{')' if open_high else ']'}"
        shown = value.item() if isinstance(value, np.generic) else value
        raise ValueError(f"{name} must {want}, got {shown!r}")
    return v


def check_choice(name, value, choices):
    """Raise ValueError, naming the argument and its value, unless
    ``value`` is a string among ``choices``."""
    if not (isinstance(value, str) and value in choices):
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


def check_finite(name, array):
    """Raise ValueError naming the first entry of ``array`` that is not
    finite, as ``name[i, j]``, and its value."""
    finite = np.isfinite(array)
    if not finite.all():
        at = tuple(np.argwhere(~finite)[0].tolist())
        raise ValueError(f"{name}[{', '.join(map(str, at))}] = {float(array[at])} is not finite")


def check_graph_index(k, n_graphs):
    """Raise ValueError unless ``k`` is an integer (Python or numpy, not a
    float or a bool), and IndexError unless 0 <= k < n_graphs; negative
    indices do not wrap around."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"graph index {k!r} is not an integer")
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
        _check_permutations(p[None])
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
        return cls(np.arange(check_count("n_nodes", n)))

    @classmethod
    def random(cls, n, rng):
        return cls(rng.permutation(check_count("n_nodes", n)))

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
    unequal sizes must first be padded with isolated dummy nodes.
    ``AffinitySet.get`` builds one for a per-pair solver; the boosting
    loop never holds one."""

    __slots__ = ("n", "data")

    def __init__(self, data):
        shape = np.shape(data)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError("affinity matrix must be square")
        if shape[0] == 0:
            raise ValueError("affinity matrix must not be empty, got shape (0, 0)")
        n = int(round(shape[0] ** 0.5))
        if n * n != shape[0]:
            raise ValueError("affinity matrix size must be a perfect square")
        self.n = n
        given_sparse = issparse(data)
        d = data if given_sparse else np.asarray(data, dtype=float)
        if given_sparse or not dense_by_fill(n, np.count_nonzero(d)):
            import scipy.sparse as sp    # only for CSR: see the README
            d = sp.csr_matrix(d, dtype=float)
            if dense_by_fill(n, d.nnz):
                d = d.toarray()
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
        return issparse(self.data)

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

    No n^2 x n^2 matrix is stored. Per kernel channel c the set holds one
    (N, n, n) edge attribute a_c, NaN exactly off each graph's edges, with
    a weight w_c and a bandwidth s_c. With graph i as the row graph, the
    affinity matrix of the pair (i, j) has the entry

        K[a*n + u, b*n + v] = sum_c w_c exp(-(a_c[i, u, v] - a_c[j, a, b])^2 / s_c)

    where edge (u, v) exists in graph i and edge (a, b) in graph j, and 0
    elsewhere, the diagonal included. A matching p of the pair therefore
    touches only the n x n block B[u, v] = K[p(u)*n + u, p(v)*n + v],
    which ``_kernel_sums`` computes from a_c[i] and the gathered
    a_c[j][p][:, p] and sums: its sum is the score vec(X)^T K vec(X) and
    its row sums are node affinities (Zhou & De la Torre, "Factorized Graph
    Matching", CVPR 2012). ``_stacks`` builds the pairwise solver's K,
    dense or CSR as it decides, the dense pairs' in ``_dense_stack``
    stacks that evaluate the kernel once per distinct entry, and ``get``
    one pair's; none keeps it.

    The constructor rejects a mask edge (u, u) or one without its mirror
    (v, u), and an attribute that is not finite or not symmetric on an
    edge, naming the first bad (graph, u, v): the solver's K must be
    symmetric. It also rejects an empty channel list, a channel that is not
    a (weight, attribute, bandwidth) triple, a weight that is not finite
    and >= 0 and a bandwidth that is not finite and > 0, naming the
    channel, and weights that are all 0: K must be finite, non-negative and
    not all zero.
    """

    def __init__(self, mask, channels):
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 3 or mask.shape[1] != mask.shape[2]:
            raise ValueError(f"edge mask must have shape (N, n, n), got {mask.shape}")
        self.N, self.n = mask.shape[0], mask.shape[1]
        if np.count_nonzero(mask.diagonal(0, 1, 2)):
            _reject_first(mask & np.eye(self.n, dtype=bool), "edge mask has a self-loop")
        _reject_first(mask != mask.transpose(0, 2, 1), "edge mask is not symmetric")
        self._edges = mask.sum(axis=(1, 2)).tolist()
        # Per channel (weight, bandwidth) and the attribute, NaN off the
        # edges: a missing edge on either side makes the kernel's input NaN,
        # which ``_kernel`` turns into exactly 0
        self._channels = []
        self._attrs = []
        channels = list(channels)
        if not channels:
            raise ValueError("need at least one kernel channel")
        for c, channel in enumerate(channels):
            try:
                weight, attr, sigma2 = channel
            except (TypeError, ValueError):
                got = (f"{len(channel)} values" if hasattr(channel, "__len__")
                       else type(channel).__name__)
                raise ValueError(f"channel {c} must be (weight, attribute, bandwidth), "
                                 f"got {got}") from None
            weight = check_real(f"channel {c} weight", weight, 0, math.inf, open_high=True)
            sigma2 = check_real(f"channel {c} bandwidth", sigma2, 0, math.inf, True, True)
            attr = np.asarray(attr, dtype=float)
            if attr.shape != mask.shape:
                raise ValueError(f"edge attributes have shape {attr.shape}, "
                                 f"expected {mask.shape}")
            # NaN off the (symmetric) edges: finite exactly on the edges and
            # symmetric exactly when the attribute is, on the edges
            edge_attr = np.where(mask, attr, np.nan)
            _reject_first(np.isfinite(edge_attr) != mask, f"edge attribute {c} is not finite",
                          attr)
            _reject_first((edge_attr != edge_attr.transpose(0, 2, 1)) & mask,
                          f"edge attribute {c} is not symmetric", attr)
            self._channels.append((weight, sigma2))
            self._attrs.append(edge_attr)
        if not any(weight for weight, _ in self._channels):
            raise ValueError(f"channel weights {[w for w, _ in self._channels]} are all 0, "
                             "so every affinity would be 0")

    def pairs(self):
        """Graph pairs (i, j) with i < j in row-major order, as Python ints."""
        return list(zip(*(a.tolist() for a in upper_indices(self.N))))

    def _kernel(self, own, other):
        """Kernel values of the row-graph attributes at ``own`` against the
        column-graph attributes at ``other``, flat indices g*n^2 + u*n + v
        into the (N, n, n) attributes, the two broadcast together; ``own``
        may instead be a tuple of the row-graph values, gathered already,
        one array per channel. Off an edge the difference is NaN, and
        ``fmax`` turns exp(NaN) into exactly +0.0 with no floating-point
        flag raised; NaN, unlike -inf, keeps numpy's ``exp`` on its fast
        SIMD path."""
        out = None
        for c, ((weight, sigma2), a) in enumerate(zip(self._channels, self._attrs)):
            k = (own[c] if isinstance(own, tuple) else a.take(own)) - a.take(other)
            np.square(k, out=k)
            np.divide(k, -sigma2, out=k)   # = -(d^2) / sigma2, bit for bit
            np.exp(k, out=k)
            np.fmax(k, 0.0, out=k)
            if weight != 1.0:
                k *= weight
            if out is None:
                out = k
            else:
                out += k
        return out

    @cached_property
    def _dense_index(self):
        """The m + 1 flat attribute indices ``_dense_stack`` gathers per
        graph, at the slots of ``slot_map(n)``, and the (n^2, n^2) map of
        K[a*n + u, b*n + v] to s(a, b) * (m + 1) + s(u, v)."""
        n = self.n
        su, sv, slot = slot_map(n)
        index = slot[:, None, :, None] * su.size + slot[None, :, None, :]   # [a, u, b, v]
        return su * n + sv, index.reshape(n * n, n * n)

    def _dense_stack(self, i, j):
        """K of the pairs (i[b], j[b]) as one (B, n^2, n^2) array, with
        graph i[b] as the row graph. Both attributes are symmetric, so
        K[a*n + u, b*n + v] depends only on {u, v} and {a, b}, and every
        u = v or a = b entry is the kernel at a diagonal attribute, off
        the edges, like any missing edge. So the kernel runs on (m + 1)^2
        slot pairs instead of n^4 entries, and one ``take`` through
        ``_dense_index`` expands them; the bytes equal those of the full
        broadcast of a_c[i, u, v] against a_c[j, a, b]."""
        gather, index = self._dense_index
        i, j = np.reshape(i, (-1, 1)) * self.n ** 2, np.reshape(j, (-1, 1)) * self.n ** 2
        vals = self._kernel((i + gather)[:, None, :], (j + gather)[:, :, None])
        return vals.reshape(len(i), -1).take(index, axis=1)

    def _stacks(self, i, j):
        """(positions, K) for the pairs (i[b], j[b]) of the index arrays,
        graph i[b] the row graph, as ``stacked_power_iteration`` takes them,
        each K built when reached: each CSR pair alone, then the dense pairs
        in ``_dense_stack`` stacks of at most STACK_ENTRIES entries, or of
        one larger K. Only here does ``dense_by_fill`` pick a pair's storage."""
        n, size = self.n, self.n * self.n
        dense = np.array([dense_by_fill(n, self._edges[a] * self._edges[b])
                          for a, b in zip(i.tolist(), j.tolist())], dtype=bool)
        for b in np.flatnonzero(~dense):
            # a graph's edges are where its attributes are finite
            ei, ej = (np.flatnonzero(np.isfinite(self._attrs[0][g])) for g in (i[b], j[b]))
            vals = self._kernel(i[b] * size + ei, (j[b] * size + ej)[:, None]).ravel()
            rows = ((ej // n)[:, None] * n + ei // n).ravel()
            cols = ((ej % n)[:, None] * n + ei % n).ravel()
            import scipy.sparse as sp    # only for CSR: see the README
            yield [b], sp.coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()
        dense = np.flatnonzero(dense)
        step = max(1, STACK_ENTRIES // size ** 2)
        for t in range(0, len(dense), step):
            at = dense[t:t + step]
            yield at, self._dense_stack(i[at], j[at])

    def get(self, i, j):
        """K of the pair (i, j), graph i the row graph: the one-pair case of
        ``_stacks`` as one matrix, built on every call and kept nowhere."""
        check_graph_index(i, self.N)
        check_graph_index(j, self.N)
        if i == j:
            raise ValueError("affinity is defined between distinct graphs")
        (_, k), = self._stacks(np.array([i]), np.array([j]))
        return AffinityMatrix._wrap(self.n, k.reshape(k.shape[-1], k.shape[-1]))

    @cached_property
    def _slot_attrs(self):
        """Every graph's attributes at the slots of ``slot_map(n)``, an
        (N, m + 1) array per channel, the row-graph values ``_kernel_sums``
        takes rows of when all rows are kept."""
        su, sv, _ = slot_map(self.n)
        return tuple(a.reshape(self.N, -1)[:, su * self.n + sv] for a in self._attrs)

    def _kernel_sums(self, i, j, perms, rows=None, axis=(1, 2)):
        """Sums of candidate matchings' kernel blocks over ``axis``.

        Row s of the (S, n) index array ``perms`` is a candidate matching
        of the pair (i[s], j[s]), graph i[s] the row graph, for (S,) graph
        index arrays ``i`` and ``j``. ``rows``, when given, is an (S, m)
        array of the kept rows of each row graph, ascending; all n are
        kept by default. Block entry [s, u, v] is the K entry linking rows
        r[u] and r[v] of the candidate. The default ``axis`` gives each
        candidate's score, an (S,) array; ``axis=2`` its per-row node
        affinities, an (S, m) array. Nothing is checked: only the library
        calls this, with graph indices i != j and permutations.

        Both attributes are symmetric and a block's diagonal lies off the
        edges, so the kernel runs only at the slots of ``slot_map(m)``,
        the pairs u < v and one diagonal entry, and one ``take`` expands
        them into the (m, m) block that is summed; its entries equal those
        of the kernel at all m^2 entries bit for bit. With all rows kept,
        the row graphs' values come from ``_slot_attrs``. Blocks are built
        and summed in order, at most BLOCK_CHUNK_ENTRIES entries (or one
        block's) at a time. A row's sum depends only on its own block, so
        it is the same bit for bit in any batch.
        """
        n = self.n
        kept = n if rows is None else rows.shape[1]
        su, sv, expand = slot_map(kept)
        if rows is None:
            picked, tables = perms, self._slot_attrs
        else:
            picked = np.take_along_axis(perms, rows, axis=1)
            own_graph = i[:, None] * (n * n)
        other_graph = j[:, None] * (n * n)
        step = max(1, BLOCK_CHUNK_ENTRIES // max(1, kept ** 2))
        sums = np.empty(len(perms) if axis == (1, 2) else (len(perms), kept))
        for s in range(0, len(perms), step):
            if rows is None:
                own = tuple(t.take(i[s:s + step], axis=0) for t in tables)
            else:
                rs = rows[s:s + step]
                own = own_graph[s:s + step] + rs[:, su] * n + rs[:, sv]
            ps = picked[s:s + step]
            other_flat = other_graph[s:s + step] + ps[:, su] * n + ps[:, sv]
            vals = self._kernel(own, other_flat)
            vals.take(expand, axis=1).sum(axis=axis, out=sums[s:s + step])
        return sums


def check_config(cfg):
    """Raise TypeError unless ``cfg`` is a MatchConfig."""
    if not isinstance(cfg, MatchConfig):
        raise TypeError(f"configuration must be a MatchConfig, got {type(cfg).__name__}")


def check_same_shape(cfg, kset):
    """Raise TypeError unless ``cfg`` is a MatchConfig, and ValueError
    unless it and the affinity set have the same graph count N and node
    count n."""
    check_config(cfg)
    if (cfg.N, cfg.n) != (kset.N, kset.n):
        raise ValueError(f"configuration has (N, n) = ({cfg.N}, {cfg.n}), "
                         f"affinity set has ({kset.N}, {kset.n})")


def pair_scores(cfg, kset):
    """Raw scores vec(X_ij)^T K_ij vec(X_ij) of every stored pair i < j,
    in row-major order, computed as one batch."""
    check_same_shape(cfg, kset)
    iu, ju = upper_indices(cfg.N)
    return kset._kernel_sums(iu, ju, cfg.perm_table()[iu, ju])


class MatchConfig:
    """All pairwise matchings over N graphs on a common node count n.

    Held as one read-only (N, N, n) int64 index table whose row [i, j] is
    X_ij. Every constructor reduces its input to the rows i < j, from which
    ``_from_upper`` fills in X_ji as the inverse (transpose) and X_ii as the
    identity, so the symmetry invariant cannot be broken. Immutable.
    """

    __slots__ = ("N", "n", "_perms")

    def __init__(self, n_graphs, n_nodes, pairs):
        check_count("n_graphs", n_graphs)
        check_count("n_nodes", n_nodes)
        if not isinstance(pairs, Mapping):
            raise TypeError("pairs must be a mapping of (i, j) to Permutation, "
                            f"got {type(pairs).__name__}")
        rows = []
        for i, j in zip(*(a.tolist() for a in upper_indices(n_graphs))):
            try:
                x = pairs[(i, j)]
            except KeyError:
                raise ValueError(f"missing matching for pair ({i}, {j})") from None
            if not isinstance(x, Permutation):
                raise ValueError(f"pair ({i}, {j}) holds {type(x).__name__}, "
                                 "expected a Permutation")
            if x.n != n_nodes:
                raise ValueError(f"pair ({i}, {j}) has node count {x.n}, expected {n_nodes}")
            rows.append(x.perm)
        built = self._from_upper(n_graphs, np.array(rows, dtype=np.int64).reshape(-1, n_nodes))
        self.N, self.n, self._perms = built.N, built.n, built._perms

    @classmethod
    def _from_upper(cls, n_graphs, upper):
        """The configuration whose X_ij, i < j in row-major order, are the
        rows of the (P, n) index array ``upper``, trusted to be permutations."""
        n = upper.shape[1]
        if n_graphs < 2 or n == 0:
            raise ValueError(f"need N >= 2 graphs and n >= 1 nodes, got N={n_graphs}, n={n}")
        iu, ju = upper_indices(n_graphs)
        t = np.empty((n_graphs, n_graphs, n), dtype=np.int64)
        t[np.arange(n_graphs), np.arange(n_graphs)] = np.arange(n)
        t[iu, ju] = upper
        t[ju, iu] = np.argsort(upper, axis=1)
        t.setflags(write=False)
        cfg = object.__new__(cls)
        cfg.N, cfg.n, cfg._perms = n_graphs, n, t
        return cfg

    @classmethod
    def identity(cls, n_graphs, n_nodes):
        pairs = len(upper_indices(check_count("n_graphs", n_graphs))[0])
        row = np.arange(check_count("n_nodes", n_nodes))
        return cls._from_upper(n_graphs, np.tile(row, (pairs, 1)))

    @classmethod
    def random(cls, n_graphs, n_nodes, rng):
        check_count("n_nodes", n_nodes)
        pairs = len(upper_indices(check_count("n_graphs", n_graphs))[0])
        rows = [rng.permutation(n_nodes) for _ in range(pairs)]
        upper = np.array(rows, dtype=np.int64).reshape(len(rows), n_nodes)
        return cls._from_upper(n_graphs, upper)

    @classmethod
    def from_table(cls, table):
        """Build from an (N, N, n) index table, reading the upper triangle;
        every row there must be a permutation of 0..n-1, and no entry
        anywhere a boolean."""
        _reject_bool(table)       # np.asarray reads True in a list as 1
        t = np.asarray(table)
        if t.ndim != 3 or t.shape[0] != t.shape[1] or t.shape[2] == 0:
            raise ValueError(f"table must have shape (N, N, n) with n >= 1, got {t.shape}")
        iu, ju = upper_indices(t.shape[0])
        upper = _index_array(t[iu, ju])
        _check_permutations(upper, lambda r: f"pair ({iu[r]}, {ju[r]}) ")
        return cls._from_upper(t.shape[0], upper)

    @classmethod
    def from_basis(cls, basis):
        """Exactly cycle-consistent configuration through a common
        reference: basis[k] is an index vector mapping graph k's nodes to
        the reference, and X_ij is basis[i] followed by the inverse of
        basis[j]; each of the N rows must be a permutation of 0..n-1."""
        b = _index_array(basis)
        if b.ndim != 2 or b.shape[1] == 0:
            raise ValueError(f"basis must have shape (N, n) with n >= 1, got {b.shape}")
        _check_permutations(b, lambda k: f"basis row of graph {k}: ")
        iu, ju = upper_indices(b.shape[0])
        return cls._from_upper(b.shape[0], np.argsort(b, axis=1)[ju[:, None], b[iu]])

    def get(self, i, j):
        check_graph_index(i, self.N)
        check_graph_index(j, self.N)
        return Permutation._wrap(self._perms[i, j])

    def pairs(self):
        """Iterate (i, j, X_ij) over the upper triangle, i and j Python ints."""
        for i, j in zip(*(a.tolist() for a in upper_indices(self.N))):
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


@dataclass(frozen=True)
class ScoreNormalizer:
    """Constant positive denominator turning raw affinity scores into
    normalized ones: the maximum initial pairwise score, fixed once."""

    value: float

    def __post_init__(self):
        # all-zero affinities give 0, which would divide every score by 0
        check_real("normalizer", self.value, 0, math.inf, True, True)

    @classmethod
    def from_initial(cls, cfg, kset):
        return cls._from_scores(pair_scores(cfg, kset))

    @classmethod
    def _from_scores(cls, scores):
        """The normalizer of the raw initial pair scores ``scores``; raises
        ValueError naming the cause when every one is 0."""
        top = float(scores.max())
        if top == 0:
            raise ValueError("every initial pair score is 0: no two graphs have edges "
                             "with a positive kernel")
        return cls(top)


def affinity_score(x, k, keep=None):
    """Raw score vec(X)^T K vec(X) of a permutation or index vector against
    an explicit affinity matrix (an ``AffinityMatrix``, or anything its
    constructor accepts), gathered from the entries X touches. With
    ``keep``, the row graph's (n,) boolean row of keep_masks, only
    affinities among kept rows count."""
    p = (x if isinstance(x, Permutation) else Permutation(x)).perm
    if not isinstance(k, AffinityMatrix):
        k = AffinityMatrix(k)
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

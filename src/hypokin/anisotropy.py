"""Chain block structure of the drift matrix and the anisotropic geometry.

The drift matrix B of the degenerate diffusion dZ = BZ dt + sigma dW couples
the noisy block (dimension d) to a chain of further blocks d_1 >= ... >= d_r.
This module recovers that chain from B, checks the controllability (weak
Hormander) condition, and provides the anisotropic norm (homogeneous of
degree 1 under the dilations z_i -> lam^(2i+1) z_i) and the exponential
exp(tB) of a nilpotent B, the flow of the semigroup's exact shear.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NotBlockTriangular, NotHypoelliptic, RankDeficientBlock

# Rank decisions use singular values with a relative cutoff.
RANK_RTOL = 1e-10


def _numerical_rank(mat, rtol=RANK_RTOL):
    if mat.size == 0:
        return 0
    s = np.linalg.svd(mat, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > rtol * s[0]))


@dataclass(frozen=True)
class BlockStructure:
    """Chain dimensions d_0 >= ... >= d_r and derived anisotropy constants.

    cum[i] is the cumulative offset of block i+1, i.e. cum = [d_0, d_0+d_1, ..., N].
    Q = sum_i d_i (2i+1) is the homogeneous dimension: anisotropic ball volumes
    scale like tau^Q.
    """

    dims: tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) == 0 or any(d < 1 for d in dims):
            raise ValueError("block dimensions must be positive integers")
        if any(a < b for a, b in zip(dims, dims[1:])):
            raise ValueError("block dimensions must be non-increasing")

    @property
    def N(self):
        return sum(self.dims)

    @property
    def d(self):
        return self.dims[0]

    @property
    def r(self):
        return len(self.dims) - 1

    @property
    def cum(self):
        return tuple(np.cumsum(self.dims).tolist())

    @property
    def Q(self):
        return sum(d * (2 * i + 1) for i, d in enumerate(self.dims))

    def block_slices(self):
        """Per-block index ranges into a length-N vector."""
        out, start = [], 0
        for d in self.dims:
            out.append(slice(start, start + d))
            start += d
        return out

    def coordinate_weights(self):
        """Dilation exponent 2i+1 for each of the N coordinates."""
        w = np.empty(self.N, dtype=int)
        for i, sl in enumerate(self.block_slices()):
            w[sl] = 2 * i + 1
        return w


def aniso_norm(z, blocks):
    """Anisotropic norm sum_i |z_i|^(1/(2i+1)) over the chain blocks.

    Accepts a single point of length N or an array whose last axis has
    length N; reduces over that axis.
    """
    z = np.asarray(z, dtype=float)
    out = 0.0
    for i, sl in enumerate(blocks.block_slices()):
        block_norm = np.sqrt(np.sum(z[..., sl] ** 2, axis=-1))
        out = out + block_norm ** (1.0 / (2 * i + 1))
    return out


def matrix_exp(B, t):
    """exp(t B) as the finite series sum_(j<N) t^j B^j / j!.

    Exact for a nilpotent N x N matrix, such as the strictly triangular
    drift matrices the semigroup's shear accepts, whose N-th power is zero
    in floating point too; raises ValueError if B^N is not exactly zero.
    """
    B = np.asarray(B, dtype=float)
    n = B.shape[0]
    if B.shape != (n, n):
        raise ValueError("B must be square")
    out = np.zeros((n, n))
    power, fact = np.eye(n), 1.0
    for j in range(n):
        out += (t ** j / fact) * power
        power = power @ B
        fact *= j + 1
    if power.any():
        raise ValueError("B is not nilpotent: B^N is not exactly zero")
    return out


def infer_blocks(B1, d):
    """Read the chain d_0=d, d_1, ..., d_r off the block-triangular drift.

    B1 is the (N-d) x N lower part of the drift matrix.  Each d_i is the
    numerical rank of the sub-diagonal block, scanning candidate sizes
    greedily from the largest admissible.

    Raises NotBlockTriangular if entries forbidden by the chain form are
    nonzero, RankDeficientBlock if a sub-diagonal block has rank < d_i.
    """
    B1 = np.atleast_2d(np.asarray(B1, dtype=float))
    d = int(d)
    if d < 1:
        raise ValueError("d must be >= 1")
    n_rows, N = B1.shape
    if N != n_rows + d:
        raise ValueError("B1 must have shape (N-d, N)")
    scale = max(np.max(np.abs(B1)), 1.0)
    ztol = RANK_RTOL * scale

    dims = [d]
    row = 0          # next unassigned row of B1
    col_prev = 0     # column offset of block i-1
    while row < n_rows:
        d_prev = dims[-1]
        remaining = n_rows - row
        chosen = None
        for size in range(min(d_prev, remaining), 0, -1):
            rows = slice(row, row + size)
            if np.max(np.abs(B1[rows, :col_prev]), initial=0.0) > ztol:
                continue
            sub = B1[rows, col_prev:col_prev + d_prev]
            if _numerical_rank(sub) == size:
                chosen = size
                break
        if chosen is None:
            if np.max(np.abs(B1[row, :col_prev]), initial=0.0) > ztol:
                raise NotBlockTriangular(
                    f"row {row + d} of B has nonzero entries left of the "
                    f"sub-diagonal block (columns < {col_prev})"
                )
            raise RankDeficientBlock(
                f"sub-diagonal block starting at row {row + d} has rank 0"
            )
        dims.append(chosen)
        col_prev += d_prev
        row += chosen
    return BlockStructure(tuple(dims))


def _sigma(N, d):
    s = np.zeros((N, d))
    s[:d, :d] = np.eye(d)
    return s


def kalman_rank(B, sigma):
    """Rank of the controllability matrix [sigma, B sigma, ..., B^(N-1) sigma]."""
    N = B.shape[0]
    cols = [sigma]
    cur = sigma
    for _ in range(N - 1):
        cur = B @ cur
        cols.append(cur)
    return _numerical_rank(np.hstack(cols))


@dataclass(frozen=True, eq=False)
class KolmogorovModel:
    """Constant-coefficient hypoelliptic model dZ = BZ dt + sigma dW.

    B stacks B0 (first d rows, arbitrary) over B1 ((N-d) x N, chain form);
    sigma embeds a d-dimensional Brownian motion into the first block, and
    A = sigma sigma^T.  `hypoelliptic` certifies Kalman controllability,
    which for constant (B, sigma) is the weak Hormander condition.
    """

    blocks: BlockStructure
    B: np.ndarray
    hypoelliptic: bool = field(init=False)

    def __post_init__(self):
        B = np.asarray(self.B, dtype=float)
        N = self.blocks.N
        if B.shape != (N, N):
            raise ValueError(f"B must be {N}x{N}")
        B = B.copy()
        B.setflags(write=False)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "hypoelliptic", check_hormander(self))

    @classmethod
    def from_drift(cls, B, d):
        """Build a model from the full drift matrix, inferring the chain."""
        B = np.asarray(B, dtype=float)
        blocks = infer_blocks(B[d:, :], d)
        return cls(blocks=blocks, B=B)

    @property
    def N(self):
        return self.blocks.N

    @property
    def d(self):
        return self.blocks.d

    @property
    def B0(self):
        return self.B[: self.d, :]

    @property
    def B1(self):
        return self.B[self.d:, :]

    @property
    def sigma(self):
        return _sigma(self.N, self.d)

    @property
    def A(self):
        return self.sigma @ self.sigma.T


def check_hormander(model):
    """True iff rank[sigma, B sigma, ..., B^(N-1) sigma] = N."""
    return kalman_rank(np.asarray(model.B, dtype=float), model.sigma) == model.N


def require_hypoelliptic(model):
    if not model.hypoelliptic:
        raise NotHypoelliptic(
            "controllability rank of (B, sigma) is below the state dimension"
        )


def kinetic_model(d=1):
    """Kinetic chain (N = 2d): dV = dW, dX = V dt."""
    N = 2 * d
    B = np.zeros((N, N))
    B[d:, :d] = np.eye(d)
    return KolmogorovModel(blocks=BlockStructure((d, d)), B=B)


def chain_model(dims):
    """Strictly-lower chain with identity sub-diagonal blocks."""
    blocks = BlockStructure(tuple(dims))
    N = blocks.N
    B = np.zeros((N, N))
    offs = blocks.cum
    for i in range(1, len(blocks.dims)):
        r0, c0 = offs[i - 1], (offs[i - 2] if i >= 2 else 0)
        di, dprev = blocks.dims[i], blocks.dims[i - 1]
        B[r0:r0 + di, c0:c0 + dprev] = np.eye(di, dprev)
    return KolmogorovModel(blocks=blocks, B=B)

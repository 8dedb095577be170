import numpy as np
import pytest

from hypokin.anisotropy import (BlockStructure, KolmogorovModel, aniso_norm,
                                check_hormander, infer_blocks,
                                matrix_exp)
from hypokin.errors import NotBlockTriangular, RankDeficientBlock


def test_block_structure_kinetic():
    b = BlockStructure((1, 1))
    assert b.N == 2 and b.d == 1 and b.r == 1
    assert b.cum == (1, 2)
    assert b.Q == 4  # 1*1 + 1*3


def test_block_structure_invariants():
    with pytest.raises(ValueError):
        BlockStructure((1, 2))  # must be non-increasing
    with pytest.raises(ValueError):
        BlockStructure((1, 0))
    b = BlockStructure((2, 2, 1))
    assert b.Q == 2 * 1 + 2 * 3 + 1 * 5
    assert b.cum == (2, 4, 5)


def test_infer_blocks_kinetic():
    b = infer_blocks(np.array([[1.0, 0.0]]), 1)
    assert b.dims == (1, 1)
    assert b.Q == 4


def test_infer_blocks_zero_block():
    with pytest.raises(RankDeficientBlock):
        infer_blocks(np.array([[0.0, 0.0]]), 1)


def test_infer_blocks_chain3():
    # Q = 1*1 + 1*3 + 1*5 = 9 by hand
    b = infer_blocks(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), 1)
    assert b.dims == (1, 1, 1)
    assert b.Q == 9


def test_infer_blocks_not_triangular():
    # second chain row reaches back into the noisy block: forbidden
    with pytest.raises(NotBlockTriangular):
        infer_blocks(np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), 1)


def test_infer_blocks_wide_first_block():
    # dims (2, 1): B1 is 1x3 with rank-1 sub-diagonal block
    b = infer_blocks(np.array([[1.0, 1.0, 0.0]]), 2)
    assert b.dims == (2, 1)


def test_check_hormander_examples(kinetic, chain3):
    assert check_hormander(kinetic)
    assert check_hormander(chain3)
    dead = KolmogorovModel(blocks=BlockStructure((1, 1)), B=np.zeros((2, 2)))
    assert not check_hormander(dead)
    assert not dead.hypoelliptic


def test_hormander_matches_block_inference():
    # block form recoverable <=> controllability, over the model corpus
    corpus = [
        (np.array([[0.0, 0.0], [1.0, 0.0]]), 1, True),
        (np.zeros((2, 2)), 1, False),
        (np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float), 1, True),
        (np.array([[0, 0, 0], [1, 0, 0], [0, 0, 0]], dtype=float), 1, False),
    ]
    for B, d, expected in corpus:
        blocks_ok = True
        try:
            infer_blocks(B[d:, :], d)
        except (NotBlockTriangular, RankDeficientBlock):
            blocks_ok = False
        assert blocks_ok == expected
        if expected:
            assert KolmogorovModel.from_drift(B, d).hypoelliptic


def test_aniso_norm_values(kinetic):
    b = kinetic.blocks
    assert aniso_norm([0.0, 0.0], b) == 0.0
    assert aniso_norm([1.0, 1.0], b) == pytest.approx(2.0)
    assert aniso_norm([0.0, 8.0], b) == pytest.approx(2.0)  # 8^(1/3)


@pytest.mark.parametrize("lam", [0.5, 3.0])
def test_dilation_homogeneity(lam, chain3):
    rng = np.random.default_rng(0)
    z = rng.standard_normal((50, 3))
    # the dilation z_i -> lam^(2i+1) z_i
    dilated = z * lam ** chain3.blocks.coordinate_weights()
    lhs = aniso_norm(dilated, chain3.blocks)
    rhs = lam * aniso_norm(z, chain3.blocks)
    assert np.max(np.abs(lhs - rhs) / rhs) < 1e-12


def test_quasi_triangle_constant(kinetic):
    # |z+w|_B <= c (|z|_B + |w|_B): estimate c over 10^4 pairs, check
    # finiteness and stability across independent batches
    b = kinetic.blocks
    cs = []
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((10000, 2)) * [1.0, 5.0]
        w = rng.standard_normal((10000, 2)) * [1.0, 5.0]
        ratio = aniso_norm(z + w, b) / (aniso_norm(z, b) + aniso_norm(w, b))
        cs.append(float(np.max(ratio)))
    assert all(np.isfinite(c) and c < 4.0 for c in cs)
    assert abs(cs[0] - cs[1]) / cs[0] < 0.25


def test_matrix_exp_identity_and_nilpotent(kinetic, chain3):
    assert np.allclose(matrix_exp(kinetic.B, 0.0), np.eye(2))
    t = 0.7
    assert np.allclose(matrix_exp(kinetic.B, t),
                       np.array([[1.0, 0.0], [t, 1.0]]), atol=1e-15)
    B = chain3.B
    exact = np.eye(3) + t * B + 0.5 * t ** 2 * (B @ B)  # B^3 = 0
    assert np.allclose(matrix_exp(B, t), exact, atol=1e-15)


def test_matrix_exp_non_nilpotent():
    # the finite series is exact only for a nilpotent B: a rotation
    # generator, or a triangle with a tiny diagonal entry, is refused
    with pytest.raises(ValueError):
        matrix_exp(np.array([[0.0, 1.0], [-1.0, 0.0]]), 0.9)
    with pytest.raises(ValueError):
        matrix_exp(np.array([[1e-20, 0.0], [1.0, 0.0]]), 0.9)


def test_ball_volume_scaling_exponent(kinetic):
    # vol(B_tau)/vol(B_1) = tau^Q, by Monte Carlo with independent draws
    b = kinetic.blocks
    Q = b.Q

    def mc_volume(tau, seed, n=400_000):
        rng = np.random.default_rng(seed)
        box = np.array([tau, tau ** 3])
        pts = rng.uniform(-1.0, 1.0, size=(n, 2)) * box
        frac = np.mean(aniso_norm(pts, b) <= tau)
        return frac * np.prod(2.0 * box)

    v1 = mc_volume(1.0, 10)
    for tau, seed in ((0.5, 11), (2.0, 12)):
        ratio = mc_volume(tau, seed) / v1
        assert abs(ratio / tau ** Q - 1.0) < 0.02


def test_model_properties(kinetic):
    assert kinetic.hypoelliptic
    assert kinetic.sigma.shape == (2, 1)
    assert np.allclose(kinetic.A, np.diag([1.0, 0.0]))
    assert np.allclose(kinetic.B0, [[0.0, 0.0]])
    assert np.allclose(kinetic.B1, [[1.0, 0.0]])


def test_from_drift_roundtrip():
    B = np.array([[0.2, -0.1, 0.0], [1.0, 0.0, 0.3], [0.0, 2.0, 0.0]])
    m = KolmogorovModel.from_drift(B, 1)
    assert m.blocks.dims == (1, 1, 1)
    assert m.hypoelliptic

import numpy as np
import pytest

from vmlandau.collision import CollisionParams, assemble_L
from vmlandau.grid import TwoSpeciesField, build_grid
from vmlandau.mode import StepperConfig


@pytest.fixture(scope="session")
def grid11():
    """Small production-shaped grid shared by most unit tests."""
    return build_grid(6.0, 11)


@pytest.fixture(scope="session")
def grid17():
    """Grid fine enough for near-machine Gaussian quadrature identities."""
    return build_grid(7.0, 17)


@pytest.fixture(scope="session")
def params():
    return CollisionParams(gamma=-3.0, c_phi=1.0)


@pytest.fixture(scope="session")
def params_soft():
    return CollisionParams(gamma=-2.5, c_phi=1.0)


@pytest.fixture(scope="session")
def op9(params):
    return assemble_L(build_grid(6.0, 9), params)


@pytest.fixture(scope="session")
def op11(grid11, params):
    return assemble_L(grid11, params)


@pytest.fixture(scope="session")
def op17(grid17, params):
    return assemble_L(grid17, params)


@pytest.fixture(scope="session")
def op11_soft(grid11, params_soft):
    return assemble_L(grid11, params_soft)


def stepper(dt, scheme="imex-midpoint", lin_tol=1e-10):
    """The step controls of the unit tests: StepperConfig with this solver
    tolerance unless a test names its own."""
    return StepperConfig(dt=dt, scheme=scheme, lin_tol=lin_tol)


def random_field(grid, rng, decay=0.25):
    """Random smooth-ish two-species field with Maxwellian-power envelope."""
    envelope = grid.mu ** decay
    vals = (rng.standard_normal((2, grid.size))
            + 1j * rng.standard_normal((2, grid.size))) * envelope
    return TwoSpeciesField(vals, grid)


def smooth_random_field(grid, rng, max_degree=3, decay=0.5):
    """Random polynomial times a Maxwellian power: smooth and decaying.

    Grid-resolution independent by construction, so refinement comparisons see
    the same underlying function family.
    """
    xi = grid.xi
    envelope = grid.mu ** decay
    vals = np.zeros((2, grid.size), dtype=complex)
    for s in range(2):
        acc = np.zeros(grid.size, dtype=complex)
        for a in range(max_degree + 1):
            for b in range(max_degree + 1 - a):
                for c in range(max_degree + 1 - a - b):
                    coef = rng.standard_normal() + 1j * rng.standard_normal()
                    acc += coef * xi[0] ** a * xi[1] ** b * xi[2] ** c
        vals[s] = acc * envelope
    return TwoSpeciesField(vals, grid)


def profile_frame(k):
    """The rotation R with R e3 = k-hat that initial data at k is built with.

    R e1 is the unit part of e_(a+1) orthogonal to k-hat, a the index of
    k-hat's largest component, and R e2 = R e3 x R e1.
    """
    k = np.asarray(k, dtype=float)
    khat = k / np.linalg.norm(k)
    e = np.eye(3)[(int(np.argmax(np.abs(khat))) + 1) % 3]
    c1 = e - (e @ khat) * khat
    c1 /= np.linalg.norm(c1)
    return np.column_stack([c1, np.cross(khat, c1), khat])


def lattice_image(state, Q, k):
    """The mode state carried to k by a signed axis permutation Q of the lattice.

    f(xi) -> f(Q^T xi), located by node coordinates, and E, B -> Q E, Q B.
    """
    from vmlandau.mode import ModeState

    g = state.fhat.grid
    src = np.rint((Q.T @ g.xi + g.R) / g.h).astype(int)
    nodes = np.ravel_multi_index(src, (g.n,) * 3)
    return ModeState(k, TwoSpeciesField(state.fhat.values[:, nodes], g),
                     Q @ state.Ehat, Q @ state.Bhat, state.t)

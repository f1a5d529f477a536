"""Reference routes shared by the test modules."""

import numpy as np


def partial_trace(rho: np.ndarray, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Factor ``keep`` (0 or 1) of densities on a dims[0] (x) dims[1] space:
    the partial trace over the other factor, of one density or of each
    density of a (..., N, N) stack."""
    if keep not in (0, 1):
        raise ValueError("keep must be 0 or 1")
    rho = np.asarray(rho)
    blocks = rho.reshape(*rho.shape[:-2], *dims, *dims)
    return np.einsum("...anbn->...ab" if keep == 0 else "...nanb->...ab", blocks)


def phase_series_five_arrays(hb, rb, weights, t_grid):
    """``jaynescummings._phase_series`` as first written, with the angle,
    sin, cos, sin^2 and 2 sin cos each a (T, S) array of its own: the
    bits the two-array route must keep."""
    from liouspace.jaynescummings import ATOM_E, ATOM_G

    m = 0.5 * (hb[:, 0, 0] + hb[:, 1, 1]).real
    w = np.hypot(0.5 * (hb[:, 0, 0] - hb[:, 1, 1]).real, np.abs(hb[:, 0, 1]))
    kk = (hb - m[:, None, None] * np.eye(2)) / np.where(w > 0, w, 1.0)[:, None, None]
    diag = rb[np.arange(len(rb)), np.arange(len(rb))]
    pops = np.einsum("kaa->ka", diag).real
    k_rho = kk @ diag
    sq = np.einsum("kaa->ka", k_rho @ kk).real - pops
    cross = np.einsum("kaa->ka", k_rho).imag
    angle = np.outer(t_grid, w)
    sin, cos = np.sin(angle), np.cos(angle)
    values = np.einsum("ka,kaj->j", pops, weights) + (sin * sin) @ np.einsum(
        "ka,kaj->kj", sq, weights
    ) + (2 * sin * cos) @ np.einsum("ka,kaj->kj", cross, weights)
    r = rb[1, 0, :, ATOM_G]
    coherence = np.exp(-1j * (m[1] - hb[0, ATOM_G, ATOM_G].real) * t_grid) * (
        cos[:, 1] * r[ATOM_E] - 1j * sin[:, 1] * (kk[1] @ r)[ATOM_E]
    )
    return values, coherence

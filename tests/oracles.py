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

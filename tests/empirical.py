"""The empirical optimum threshold: a simulation oracle for the exact bisection optimum."""

from nvmdtd.channel import ChannelParams, sample_block_matrix
from nvmdtd.detectors import dtd_search


def empirical_threshold(params: ChannelParams, nblocks: int, seed: int,
                        n: int = 71) -> tuple[float, float]:
    """The threshold that minimizes the error count over ``nblocks`` simulated blocks.

    Reuses the dynamic-threshold sweep with the true bits as labels, so the
    threshold exactly minimizes the empirical error count.  Returns the
    threshold and its empirical bit error rate.
    """
    x, y = sample_block_matrix(params, n, nblocks, seed)
    sweep = dtd_search(y, x)
    return sweep.r_adj, sweep.objective / (nblocks * n)

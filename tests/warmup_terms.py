"""The two terms of the warm-up objective, each on its own.

The library exposes the warm-up objective only whole, as ``warmup_loss``.
These compose its own kernels, ``losses._infonce`` and ``losses._rce``, with
the matching probabilities, so that a test of either term checks library
code and not a copy of it.
"""

from rematch import losses


def infonce_loss(s, tau):
    """InfoNCE over the similarity matrix ``s``, and its gradient."""
    work = losses._Workspace()
    return losses._infonce(*losses.matching_probs(s, tau, work=work), tau, work)


def rce_loss(s, tau, eps=1e-7):
    """Reversed cross-entropy over ``s``, and its gradient."""
    work = losses._Workspace()
    return losses._rce(*losses.matching_probs(s, tau, work=work), tau, eps, work)

"""Shared fixtures-in-spirit for the test suite: one default codec and
small wrappers that run a two-server job and open the result."""

import numpy as np

from ssgpr.protocols import open_model_masks, ss_dist
from ssgpr.ring import FixedPointCodec, RingParams
from ssgpr.session import run_session
from ssgpr.sharing import reconstruct, share_reals
from ssgpr.transport import P0, P1

CODEC = FixedPointCodec(RingParams(64, 26))
QUANTUM = CODEC.quantum


def run_shared(fn, values, codec=CODEC, seed=0, share_seed=0, **session_kw):
    """Share each array in ``values``, run ``fn(rt, *shares)`` on both
    servers, and return the SessionResult."""
    rng = np.random.default_rng(share_seed)
    pairs = [share_reals(np.asarray(v, dtype=np.float64), codec, rng) for v in values]

    def job(rt):
        return fn(rt, *[p[rt.party] for p in pairs])

    return run_session(job, codec, seed=seed, **session_kw)


def open_result(result):
    """Reconstruct a session output that is a single SharedArray."""
    return reconstruct(result.outputs[P0], result.outputs[P1])


def open_item(result, index):
    return reconstruct(result.outputs[P0][index], result.outputs[P1][index])


def cross_dist(rt, x, y):
    """ss_dist's cross form from shared points x to shared points y.

    y's raw norms come from the self form, and y^T is opened once against
    a model mask, as model construction does for the training points.
    """
    _, norms = ss_dist(rt, y)
    key = rt.assistant.new_key()
    rt.assistant.deal([("model_mask", (key, *y.T.shape, 0))])
    (yt,) = open_model_masks(rt, [(key, y.T)])
    return ss_dist(rt, x, yt, norms)

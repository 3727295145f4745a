"""One-shot event draws: the test oracle of ``lobeq.simulator``'s drawer.

Every random input of a run is drawn from one generator in one pass, in
the stream's order, exactly as the simulator drew them before it drew in
chunks: the chunked drawer must give the same arrays bit for bit, at any
chunk size, and leave the generator where this one leaves it.
"""

from __future__ import annotations

import numpy as np

from lobeq.simulator import EventDraws


def _sign_chain(n, gamma, rng, x0):
    """Two-state chain with persistence P(X_j = X_{j-1}) = gamma."""
    if n == 0:
        return np.zeros(0, dtype=np.int8)
    steps = np.where(rng.random(n) < gamma, 1, -1).astype(np.int8)
    return x0 * np.multiply.accumulate(steps)


def draw_events(params, n_events, rng):
    is_jump = rng.random(n_events) < params.r
    jump_size = np.asarray(params.jump.sample(rng, n_events), dtype=float)
    it_wins = rng.random(n_events) < params.f
    noise_mag = np.abs(np.asarray(params.volume.sample(rng, n_events), dtype=float))

    noise_slots = ~is_jump
    n_noise = int(noise_slots.sum())
    x0 = 1 if rng.random() < 0.5 else -1
    chain = _sign_chain(n_noise, params.gamma, rng, x0)
    noise_sign = np.zeros(n_events, dtype=np.int8)
    noise_sign[noise_slots] = chain

    drift = np.zeros(n_events, dtype=float)
    if n_noise:
        prev = np.concatenate(([np.int8(x0)], chain[:-1]))
        drift[noise_slots] = params.theta * (chain - params.rho * prev.astype(float))
    return EventDraws(is_jump, it_wins, jump_size, noise_sign, noise_mag, drift)

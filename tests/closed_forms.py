"""Closed forms of the measure columns, derived from the channel definitions.

Each form is an explicit function of the initial amplitude x and the noise
value p (scalars or numpy arrays), written down from the channels as the
README defines them, never from the package's own dilation.  This module
imports nothing from ccrsweep, so it is an oracle independent of the code
under test.

Stage 1 covers the one-qubit kinds.  Each one's global state is a pure
two-qubit state of A and its environment E_A, so the A-E_A pair is that
state.  With y^2 = 1 - x^2, each kind is a two-branch mixture of weight
r = p (phase flip, bit-phase flip) or r = (1 - p)/2 (depolarizing), and
q = r(1 - r).

The initial columns (``*_initial``) are those of A before the channel acts,
for every kind.  A two-qubit kind's A starts entangled with B, in
diag(x^2, y^2); a one-qubit kind's A starts in the pure x|0> + y|1>.

The one-qubit forms:

- ``C_global``, for all three kinds, is 1 - (x^4 + y^4)((1 - r)^2 + r^2).
- ``C_hs_A`` is 2 x^2 y^2 (1 - 2r)^2 for all three kinds.
- ``P_hs_A``, ``S_l_A`` and ``Cc_AEA`` follow per kind.
- The smallest eigenvalue of the A-E_A partial transpose is
  -|c00 c11 - c01 c10|, for the pure state's amplitudes c.  This is the
  product of its two Schmidt coefficients (Vidal-Werner, PRA 65, 032314
  (2002)).

Stage 2 covers amplitude damping.  Each qubit of |11> decays on its own into
its environment qubit, so with q = 1 - p the global state over
(A, B, E_A, E_B) is

    x|0000> + y (q|1100> + sqrt(pq) (|1001> + |0110>) + p|0011>).

Every pair of it is an X state, and A's marginal is diag(a, b) with
a = x^2 + y^2 p and b = y^2 q.
"""

from __future__ import annotations

import numpy as np

#: The partial transpose of a PPT state has no eigenvalue below -PPT_TOL.
PPT_TOL = 1e-10

#: The kinds with a two-qubit system, by their CLI names.
TWO_QUBIT_KINDS = ("adc", "cadc", "pdc", "bfc")

#: The one-qubit kinds, by their CLI names, with their mixing weight r(p).
MIXING_WEIGHT = {
    "pfc": lambda p: p,
    "bpfc": lambda p: p,
    "dc": lambda p: (1.0 - p) / 2.0,
}


def one_qubit_columns(kind: str, x, p) -> dict:
    """P_hs_A, C_hs_A, S_l_A, C_global, Cc_AEA, the A-E_A partial-transpose
    minimum ``cross_min`` and the ``ppt_AEA`` flag of a one-qubit kind
    ("pfc", "bpfc" or "dc") at initial amplitude x and noise value p."""
    x, p = np.asarray(x, dtype=float), np.asarray(p, dtype=float)
    x2 = x * x
    y2 = 1.0 - x2
    r = MIXING_WEIGHT[kind](p)
    q = r * (1.0 - r)
    c_global = 1.0 - (x2 * x2 + y2 * y2) * ((1.0 - r) ** 2 + r * r)
    c_hs = 2.0 * x2 * y2 * (1.0 - 2.0 * r) ** 2
    if kind == "pfc":
        # a phase flip keeps A's populations and shrinks its coherence
        p_hs = x2 * x2 + y2 * y2 - 0.5
        s_l = 8.0 * x2 * y2 * q
        cc_aea = c_global - c_hs - 2.0 * (x2 - y2) ** 2 * q
        cross_min = -2.0 * np.sqrt(x2 * y2 * q)
    else:
        # a sigma_y branch exchanges A's populations with weight r
        a = x2 * (1.0 - r) + y2 * r
        b = y2 * (1.0 - r) + x2 * r
        p_hs = a * a + b * b - 0.5
        s_l = 1.0 - a * a - b * b - c_hs
        cc_aea = c_global - c_hs
        cross_min = -np.sqrt(q)
    return {
        "P_hs_A": p_hs,
        "C_hs_A": c_hs,
        "S_l_A": s_l,
        "C_global": c_global,
        "Cc_AEA": cc_aea,
        "cross_min": cross_min,
        "ppt_AEA": (cross_min >= -PPT_TOL).astype(float),
    }


def adc_columns(x, p) -> dict:
    """P_hs_A, C_hs_A, S_l_A, the Cc_* of every pair, C_env, C_global,
    Cc_ABE and concurrence_AB of amplitude damping at initial amplitude x and
    noise value p.  Each pair's correlated coherence is twice the squared
    modulus of its one off-diagonal entry, since its marginals are diagonal;
    the concurrence is Wootters' X-state form of the A-B pair."""
    x, p = np.asarray(x, dtype=float), np.asarray(p, dtype=float)
    x2 = x * x
    y2 = 1.0 - x2
    y = np.sqrt(y2)
    q = 1.0 - p
    a, b = x2 + y2 * p, y2 * q
    cc_env = 2.0 * x2 * y2 * p * p
    c_global = 1.0 - x2 * x2 - y2 * y2 * (q * q + p * p) ** 2
    return {
        "P_hs_A": a * a + b * b - 0.5,
        "C_hs_A": 0.0 * x2 * p,
        "S_l_A": 2.0 * y2 * q * (1.0 - y2 * q),
        "Cc_AB": 2.0 * x2 * y2 * q * q,
        "Cc_AEA": 2.0 * y2 * y2 * p * q,
        "Cc_AEB": 2.0 * x2 * y2 * p * q,
        "Cc_EAEB": cc_env,
        "C_env": cc_env,
        "C_global": c_global,
        "Cc_ABE": c_global,
        "concurrence_AB": 2.0 * y * q * np.maximum(0.0, x - y * p),
    }


def initial_columns(kind: str, x) -> dict:
    """P_hs_A_initial, C_hs_A_initial and S_l_initial of any kind (by its CLI
    name) at initial amplitude x.  A's populations are x^2 and y^2 for every
    kind; a two-qubit kind's A is mixed by its entanglement with B, a
    one-qubit kind's A is pure and coherent."""
    x = np.asarray(x, dtype=float)
    x2 = x * x
    y2 = 1.0 - x2
    p_hs = x2 * x2 + y2 * y2 - 0.5
    shared = 2.0 * x2 * y2
    c_hs, s_l = (0.0 * x, shared) if kind in TWO_QUBIT_KINDS else (shared, 0.0 * x)
    return {"P_hs_A_initial": p_hs, "C_hs_A_initial": c_hs, "S_l_initial": s_l}

"""A Poseidon-style algebraic hash over the BN254 scalar field.

The production circuits of Table 4 are dominated by algebraic hashes
(Pedersen/Poseidon-class): long chains of an S-box permutation whose only
non-linear operation is a low-degree power — exactly what R1CS prices
cheaply.  This module implements a Poseidon-shaped sponge permutation
(width 3, ``x^5`` S-box, full/partial round split, Cauchy MDS matrix) both
natively and as a circuit gadget through
:class:`repro.zksnark.builder.CircuitBuilder`, with tests pinning the two
to each other.

**Synthetic instantiation**: round constants come from a seeded
deterministic generator and the MDS matrix from a Cauchy construction —
the standardised Grain-LFSR constants are not reproducible here.  The
algebraic structure (and hence the constraint profile: ~3 constraints per
S-box) is the real one.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

from repro.curves.params import curve_by_name
from repro.zksnark.builder import CircuitBuilder, Wire

P = curve_by_name("BN254").r

STATE_WIDTH = 3
FULL_ROUNDS = 8
PARTIAL_ROUNDS = 56


@lru_cache(maxsize=1)
def round_constants() -> tuple:
    """Deterministic per-round constants (synthetic; see module docstring)."""
    total = (FULL_ROUNDS + PARTIAL_ROUNDS) * STATE_WIDTH
    out = []
    counter = 0
    while len(out) < total:
        digest = hashlib.sha256(f"repro-poseidon-{counter}".encode()).digest()
        value = int.from_bytes(digest, "big") % P
        out.append(value)
        counter += 1
    return tuple(out)


@lru_cache(maxsize=1)
def mds_matrix() -> tuple:
    """A 3x3 Cauchy matrix — maximal-distance-separable by construction."""
    xs = (1, 2, 3)
    ys = (4, 5, 6)
    return tuple(
        tuple(pow((x + y) % P, -1, P) for y in ys) for x in xs
    )


def _sbox(x: int) -> int:
    return pow(x, 5, P)


def permute(state: list[int]) -> list[int]:
    """The Poseidon-style permutation on a width-3 state."""
    if len(state) != STATE_WIDTH:
        raise ValueError(f"state must have width {STATE_WIDTH}")
    state = [s % P for s in state]
    constants = round_constants()
    mds = mds_matrix()
    half_full = FULL_ROUNDS // 2
    idx = 0
    for rnd in range(FULL_ROUNDS + PARTIAL_ROUNDS):
        state = [(s + constants[idx + i]) % P for i, s in enumerate(state)]
        idx += STATE_WIDTH
        full = rnd < half_full or rnd >= half_full + PARTIAL_ROUNDS
        if full:
            state = [_sbox(s) for s in state]
        else:
            state[0] = _sbox(state[0])
        state = [
            sum(mds[r][c] * state[c] for c in range(STATE_WIDTH)) % P
            for r in range(STATE_WIDTH)
        ]
    return state


def hash2(a: int, b: int) -> int:
    """Two-to-one compression: absorb (a, b), squeeze one element."""
    return permute([0, a % P, b % P])[0]


# -- circuit gadget ------------------------------------------------------------


def sbox_gadget(builder: CircuitBuilder, x: Wire) -> Wire:
    """``x^5`` in 3 constraints (x2, x4, x5)."""
    x2 = x * x
    x4 = x2 * x2
    return x4 * x


def permutation_gadget(builder: CircuitBuilder, state: list[Wire]) -> list[Wire]:
    """The permutation over wires; mirrors :func:`permute` exactly.

    Constant additions and the MDS layer are linear — free in R1CS; only
    the S-boxes cost constraints: ``3 * (8 full rounds) + 56 partial = 80``
    S-boxes, 3 constraints each.
    """
    if len(state) != STATE_WIDTH:
        raise ValueError(f"state must have width {STATE_WIDTH}")
    constants = round_constants()
    mds = mds_matrix()
    half_full = FULL_ROUNDS // 2
    idx = 0
    for rnd in range(FULL_ROUNDS + PARTIAL_ROUNDS):
        state = [s + constants[idx + i] for i, s in enumerate(state)]
        idx += STATE_WIDTH
        full = rnd < half_full or rnd >= half_full + PARTIAL_ROUNDS
        if full:
            state = [sbox_gadget(builder, s) for s in state]
        else:
            state = [sbox_gadget(builder, state[0])] + state[1:]
        state = [
            sum((state[c] * mds[r][c] for c in range(1, STATE_WIDTH)),
                state[0] * mds[r][0])
            for r in range(STATE_WIDTH)
        ]
    return state


def hash2_gadget(builder: CircuitBuilder, a: Wire, b: Wire) -> Wire:
    """Circuit counterpart of :func:`hash2`."""
    state = [builder.constant(0), a, b]
    return permutation_gadget(builder, state)[0]


#: R1CS constraints of one two-to-one hash (the workload sizing figure)
CONSTRAINTS_PER_HASH = 3 * (3 * FULL_ROUNDS + PARTIAL_ROUNDS)

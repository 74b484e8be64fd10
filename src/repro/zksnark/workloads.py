"""Synthetic R1CS workloads standing in for the paper's Table 4 circuits.

The paper proves production circuits — Zcash-Sprout (2.59M constraints),
Otti-SGD (6.97M) and ZEN-LeNet (77.7M) — whose constraint systems are not
available here.  Each generator below produces a circuit with the same
structural flavour at a configurable size, together with a satisfying
witness, so the identical Groth16 code path runs for real; the full-scale
timing comes from :mod:`repro.zksnark.pipeline`'s model parameterised by the
paper's constraint counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.curves.params import curve_by_name
from repro.zksnark.r1cs import R1cs

BN254_R = curve_by_name("BN254").r


@dataclass(frozen=True)
class WorkloadSpec:
    """Metadata tying a generator to its Table 4 row."""

    name: str
    paper_constraints: int
    paper_libsnark_seconds: float
    description: str


ZCASH_SPROUT = WorkloadSpec(
    name="Zcash-Sprout",
    paper_constraints=2_585_747,
    paper_libsnark_seconds=145.8,
    description="shielded-transaction circuit: long hash chains",
)
OTTI_SGD = WorkloadSpec(
    name="Otti-SGD",
    paper_constraints=6_968_254,
    paper_libsnark_seconds=291.0,
    description="verified optimisation: SGD step certification",
)
ZEN_LENET = WorkloadSpec(
    name="Zen_acc-LeNet",
    paper_constraints=77_689_757,
    paper_libsnark_seconds=5036.7,
    description="verified quantised CNN inference",
)

ALL_WORKLOADS = (ZCASH_SPROUT, OTTI_SGD, ZEN_LENET)


def hash_chain_circuit(length: int, seed: int = 1) -> tuple[R1cs, list[int]]:
    """A Zcash-Sprout-flavoured circuit: an iterated quadratic hash chain.

    ``x_{i+1} = x_i^2 + x_i + c_i`` — one multiplication constraint per
    round, mirroring the algebraic-hash chains that dominate shielded
    transactions.  Public: the chain output.  Private: the seed.
    """
    rng = random.Random(seed)
    p = BN254_R
    r1cs = R1cs(modulus=p)
    out_var = r1cs.declare_public(1)[0]
    x_var = r1cs.new_variable()

    x_val = rng.randrange(p)
    values = {0: 1, x_var: x_val}
    current_var, current_val = x_var, x_val
    for _ in range(length):
        c = rng.randrange(p)
        sq_var = r1cs.new_variable()
        sq_val = current_val * current_val % p
        values[sq_var] = sq_val
        r1cs.enforce_product(current_var, current_var, sq_var)
        next_var = r1cs.new_variable()
        next_val = (sq_val + current_val + c) % p
        values[next_var] = next_val
        r1cs.enforce_linear({sq_var: 1, current_var: 1, 0: c}, next_var)
        current_var, current_val = next_var, next_val
    r1cs.add_constraint({current_var: 1}, {0: 1}, {out_var: 1})
    values[out_var] = current_val

    assignment = [values.get(i, 0) for i in range(r1cs.num_variables)]
    return r1cs, assignment


#: witness seeds of the SGD and LeNet circuits
SGD_SEED = 2
LENET_SEED = 3
#: side of the LeNet circuit's square convolution kernel
LENET_KERNEL = 2


def sgd_step_circuit(features: int, samples: int) -> tuple[R1cs, list[int]]:
    """An Otti-SGD-flavoured circuit: certify one least-squares SGD step.

    For each sample: prediction = <w, x>, residual = prediction - y, and the
    gradient contributions residual * x_j — inner products and element-wise
    multiplications, the constraint mix of verified optimisation.
    Public: the updated weights.  Private: data and old weights.
    """
    rng = random.Random(SGD_SEED)
    p = BN254_R
    r1cs = R1cs(modulus=p)
    new_w_vars = r1cs.declare_public(features)

    w_vars = [r1cs.new_variable() for _ in range(features)]
    w_vals = [rng.randrange(100) for _ in range(features)]
    values = {0: 1}
    for var, val in zip(w_vars, w_vals):
        values[var] = val

    grad_vals = [0] * features
    grad_terms: list[dict] = [dict() for _ in range(features)]
    for _ in range(samples):
        x_vars = [r1cs.new_variable() for _ in range(features)]
        x_vals = [rng.randrange(100) for _ in range(features)]
        for var, val in zip(x_vars, x_vals):
            values[var] = val
        y_val = rng.randrange(100)

        # prediction = <w, x> via chained product accumulators
        pred_val = 0
        pred_terms = {}
        for w_var, w_val, x_var, x_val in zip(w_vars, w_vals, x_vars, x_vals):
            prod_var = r1cs.new_variable()
            prod_val = w_val * x_val % p
            values[prod_var] = prod_val
            r1cs.enforce_product(w_var, x_var, prod_var)
            pred_terms[prod_var] = 1
            pred_val = (pred_val + prod_val) % p
        resid_var = r1cs.new_variable()
        resid_val = (pred_val - y_val) % p
        values[resid_var] = resid_val
        r1cs.enforce_linear({**pred_terms, 0: -y_val}, resid_var)

        # gradient contributions residual * x_j
        for j, (x_var, x_val) in enumerate(zip(x_vars, x_vals)):
            g_var = r1cs.new_variable()
            g_val = resid_val * x_val % p
            values[g_var] = g_val
            r1cs.enforce_product(resid_var, x_var, g_var)
            grad_terms[j][g_var] = 1
            grad_vals[j] = (grad_vals[j] + g_val) % p

    # w' = w - grad (learning rate folded to 1 for constraint purposes)
    for j in range(features):
        new_val = (w_vals[j] - grad_vals[j]) % p
        values[new_w_vars[j]] = new_val
        terms = {w_vars[j]: 1}
        for g_var in grad_terms[j]:
            terms[g_var] = p - 1
        r1cs.enforce_linear(terms, new_w_vars[j])

    assignment = [values.get(i, 0) for i in range(r1cs.num_variables)]
    return r1cs, assignment


def lenet_style_circuit(channels: int = 2, width: int = 4) -> tuple[R1cs, list[int]]:
    """A ZEN-LeNet-flavoured circuit: a quantised convolution layer.

    Each output pixel is an inner product of a kernel window with the input
    feature map followed by a (squared) activation — the multiply-accumulate
    pattern of verified CNN inference.  Public: the output feature map sum.
    """
    kernel = LENET_KERNEL
    rng = random.Random(LENET_SEED)
    p = BN254_R
    r1cs = R1cs(modulus=p)
    out_var = r1cs.declare_public(1)[0]
    values = {0: 1}

    input_vars = {}
    for c in range(channels):
        for i in range(width):
            for j in range(width):
                var = r1cs.new_variable()
                values[var] = rng.randrange(256)  # quantised activations
                input_vars[(c, i, j)] = var
    kernel_vars = {}
    for c in range(channels):
        for ki in range(kernel):
            for kj in range(kernel):
                var = r1cs.new_variable()
                values[var] = rng.randrange(256)
                kernel_vars[(c, ki, kj)] = var

    out_sum_val = 0
    out_terms = {}
    out_dim = width - kernel + 1
    for i in range(out_dim):
        for j in range(out_dim):
            acc_val = 0
            acc_terms = {}
            for c in range(channels):
                for ki in range(kernel):
                    for kj in range(kernel):
                        x_var = input_vars[(c, i + ki, j + kj)]
                        k_var = kernel_vars[(c, ki, kj)]
                        prod_var = r1cs.new_variable()
                        prod_val = values[x_var] * values[k_var] % p
                        values[prod_var] = prod_val
                        r1cs.enforce_product(x_var, k_var, prod_var)
                        acc_terms[prod_var] = 1
                        acc_val = (acc_val + prod_val) % p
            pixel_var = r1cs.new_variable()
            values[pixel_var] = acc_val
            r1cs.enforce_linear(acc_terms, pixel_var)
            # squared activation (field-friendly non-linearity)
            act_var = r1cs.new_variable()
            act_val = acc_val * acc_val % p
            values[act_var] = act_val
            r1cs.enforce_product(pixel_var, pixel_var, act_var)
            out_terms[act_var] = 1
            out_sum_val = (out_sum_val + act_val) % p

    r1cs.enforce_linear(out_terms, out_var)
    values[out_var] = out_sum_val
    assignment = [values.get(i, 0) for i in range(r1cs.num_variables)]
    return r1cs, assignment


def workload_circuit(spec: WorkloadSpec, scale: int = 16) -> tuple[R1cs, list[int]]:
    """A reduced-scale instance of a Table 4 workload."""
    if spec.name == ZCASH_SPROUT.name:
        return hash_chain_circuit(length=scale)
    if spec.name == OTTI_SGD.name:
        return sgd_step_circuit(features=max(2, scale // 4), samples=2)
    if spec.name == ZEN_LENET.name:
        return lenet_style_circuit(channels=2, width=max(3, scale // 4))
    raise KeyError(f"unknown workload {spec.name!r}")

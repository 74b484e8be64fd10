"""A small circuit-builder DSL with automatic witness computation.

Hand-maintaining parallel (constraint, witness) code — as the raw
:class:`~repro.zksnark.r1cs.R1cs` API requires — is how real front-ends
get soundness bugs.  This builder tracks values alongside wires: arithmetic
on :class:`Wire` objects emits R1CS constraints *and* computes the witness,
so ``synthesize()`` always returns a satisfying assignment by construction.

>>> c = CircuitBuilder()
>>> x = c.private(3)
>>> out = c.public_output(x * x * x + x + 5)
>>> r1cs, assignment = c.synthesize()
>>> r1cs.is_satisfied(assignment)
True
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.curves.params import curve_by_name
from repro.zksnark.r1cs import R1cs

BN254_R = curve_by_name("BN254").r


@dataclass(frozen=True)
class Wire:
    """A circuit value: a linear combination of R1CS variables.

    Wires are immutable; arithmetic returns new wires.  Additions and
    constant multiplications stay *free* (they fold into the linear
    combination); only ``*`` between two non-constant wires allocates a
    variable and a constraint — exactly R1CS's cost model.
    """

    builder: "CircuitBuilder"
    terms: tuple  # ((var, coeff), ...) sorted by var
    value: int

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = self.builder.wire_of(other)
        return self.builder._linear_combine(self, other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        other = self.builder.wire_of(other)
        return self.builder._linear_combine(self, other, -1)

    def __rsub__(self, other):
        return self.builder.wire_of(other) - self

    def __neg__(self):
        return self.builder.constant(0) - self

    def __mul__(self, other):
        if isinstance(other, int):
            p = self.builder.modulus
            terms = tuple((v, c * other % p) for v, c in self.terms)
            return Wire(self.builder, terms, self.value * other % p)
        if isinstance(other, Wire):
            return self.builder.multiply(self, other)
        return NotImplemented

    __rmul__ = __mul__

    def is_constant(self) -> bool:
        return all(v == 0 for v, _ in self.terms)


class CircuitBuilder:
    """Builds an R1CS over BN254's scalar field and its satisfying witness
    simultaneously."""

    def __init__(self):
        self.modulus = BN254_R
        self._r1cs = R1cs(modulus=BN254_R)
        self._values = {0: 1}
        self._public_wires: list[Wire] = []
        self._private_pending: list[tuple] = []
        self._synthesized = False

    # -- inputs ----------------------------------------------------------

    def constant(self, value: int) -> Wire:
        return Wire(self, ((0, value % self.modulus),), value % self.modulus)

    def wire_of(self, value) -> Wire:
        if isinstance(value, Wire):
            return value
        if isinstance(value, int):
            return self.constant(value)
        raise TypeError(f"cannot build a wire from {type(value).__name__}")

    def private(self, value: int) -> Wire:
        """A private witness input with the given value."""
        var = self._new_private_var(value)
        return Wire(self, ((var, 1),), value % self.modulus)

    def public_output(self, wire) -> Wire:
        """Expose a wire's value as a public input/output of the circuit."""
        wire = self.wire_of(wire)
        self._public_wires.append(wire)
        return wire

    # -- gates ---------------------------------------------------------------

    def multiply(self, a: Wire, b: Wire) -> Wire:
        """Allocate ``out = a * b`` (one R1CS constraint)."""
        value = a.value * b.value % self.modulus
        if a.is_constant():
            return b * a.value
        if b.is_constant():
            return a * b.value
        out_var = self._new_private_var(value)
        self._private_pending.append(
            (dict(a.terms), dict(b.terms), {out_var: 1})
        )
        return Wire(self, ((out_var, 1),), value)

    def assert_boolean(self, a) -> None:
        """Constrain ``a`` to {0, 1}: ``a * (a - 1) = 0``."""
        a = self.wire_of(a)
        if a.value not in (0, 1):
            raise ValueError(f"assert_boolean on non-boolean value {a.value}")
        self._private_pending.append(
            (dict(a.terms), dict((a - 1).terms), {})
        )

    # -- synthesis ---------------------------------------------------------------

    def synthesize(self) -> tuple[R1cs, list[int]]:
        """Produce the R1CS and its (correct-by-construction) witness.

        Public wires are materialised first (R1CS requires public variables
        before private ones), then private variables are renumbered in
        allocation order.
        """
        if self._synthesized:
            raise RuntimeError("synthesize() may only be called once")
        self._synthesized = True

        r1cs = R1cs(modulus=self.modulus)
        public_vars = r1cs.declare_public(len(self._public_wires))
        # renumber: old private var -> new var id
        remap = {0: 0}
        values = {0: 1}
        for old_var in sorted(v for v in self._values if v != 0):
            new_var = r1cs.new_variable()
            remap[old_var] = new_var
            values[new_var] = self._values[old_var]

        def remap_row(row: dict) -> dict:
            return {remap[v]: c for v, c in row.items()}

        for a_row, b_row, c_row in self._private_pending:
            r1cs.add_constraint(remap_row(a_row), remap_row(b_row), remap_row(c_row))
        for var, wire in zip(public_vars, self._public_wires):
            r1cs.add_constraint(
                remap_row(dict(wire.terms)), {0: 1}, {var: 1}
            )
            values[var] = wire.value

        assignment = [values.get(i, 0) for i in range(r1cs.num_variables)]
        return r1cs, assignment

    # -- internals ------------------------------------------------------------

    def _new_private_var(self, value: int) -> int:
        var = len(self._values)
        self._values[var] = value % self.modulus
        return var

    def _linear_combine(self, a: Wire, b: Wire, sign: int) -> Wire:
        p = self.modulus
        combined = dict(a.terms)
        for var, coeff in b.terms:
            combined[var] = (combined.get(var, 0) + sign * coeff) % p
        terms = tuple(sorted((v, c) for v, c in combined.items() if c))
        return Wire(self, terms or ((0, 0),), (a.value + sign * b.value) % p)

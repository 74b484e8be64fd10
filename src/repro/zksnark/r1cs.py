"""Rank-1 constraint systems (R1CS).

A constraint system over ``GF(r)`` with witness vector
``z = (1, public..., private...)`` and constraints ``<A_k, z> * <B_k, z> =
<C_k, z>``.  Rows are sparse (variable index -> coefficient), which is how
real front-ends (libsnark's protoboard, circom) emit them.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Constraint:
    """One R1CS row: ``<a, z> * <b, z> = <c, z>`` with sparse maps."""

    a: dict
    b: dict
    c: dict


@dataclass
class R1cs:
    """An R1CS instance over ``GF(modulus)``.

    Variable 0 is the constant 1; variables ``1..num_public`` are the public
    inputs; the rest are private witness variables.
    """

    modulus: int
    num_public: int = 0
    constraints: list = field(default_factory=list)
    num_variables: int = 1  # the constant-one wire

    def new_variable(self) -> int:
        """Allocate a fresh variable index."""
        idx = self.num_variables
        self.num_variables += 1
        return idx

    def declare_public(self, count: int = 1) -> list[int]:
        """Allocate public-input variables (must precede private ones)."""
        if self.num_variables != self.num_public + 1:
            raise ValueError("public inputs must be declared before privates")
        out = [self.new_variable() for _ in range(count)]
        self.num_public += count
        return out

    def add_constraint(self, a: dict, b: dict, c: dict) -> None:
        """Append ``<a,z> * <b,z> = <c,z>``; coefficients reduced mod r."""
        p = self.modulus

        def clean(row: dict) -> dict:
            out = {}
            for var, coeff in row.items():
                if not 0 <= var < self.num_variables:
                    raise ValueError(f"unknown variable {var}")
                coeff %= p
                if coeff:
                    out[var] = coeff
            return out

        self.constraints.append(Constraint(clean(a), clean(b), clean(c)))

    # convenience gates ------------------------------------------------------

    def enforce_product(self, x: int, y: int, out: int) -> None:
        """x * y = out."""
        self.add_constraint({x: 1}, {y: 1}, {out: 1})

    def enforce_linear(self, terms: dict, out: int) -> None:
        """sum(coeff * var) = out  (multiplication by the constant wire)."""
        self.add_constraint(dict(terms), {0: 1}, {out: 1})

    # evaluation ------------------------------------------------------------

    def row_dot(self, row: dict, assignment: list[int]) -> int:
        return sum(coeff * assignment[var] for var, coeff in row.items()) % self.modulus

    def is_satisfied(self, assignment: list[int]) -> bool:
        """Whether a full assignment satisfies every constraint."""
        if len(assignment) != self.num_variables:
            raise ValueError(
                f"assignment has {len(assignment)} entries, "
                f"expected {self.num_variables}"
            )
        if assignment[0] != 1:
            raise ValueError("assignment[0] must be the constant 1")
        return all(
            self.row_dot(k.a, assignment) * self.row_dot(k.b, assignment) % self.modulus
            == self.row_dot(k.c, assignment)
            for k in self.constraints
        )

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def public_inputs(self, assignment: list[int]) -> list[int]:
        return assignment[1 : 1 + self.num_public]

    def __repr__(self):
        return (
            f"R1cs({self.num_constraints} constraints, "
            f"{self.num_variables} variables, {self.num_public} public)"
        )

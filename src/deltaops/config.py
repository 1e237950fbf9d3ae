"""Run configuration for the verifier: caps, conventions, cache location."""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

ENV_CACHE_DIR = "DELTAOPS_CACHE_DIR"

# Every degree cap of a Config; each must be at least 1.
CAP_FIELDS = (
    "n_max_op", "n_max_comb", "sym_cap", "omp_cap", "osp_equi_cap",
    "gamma_cap", "xy_cap", "bij_cap", "eh_cap", "lucas_cap",
)


@dataclass
class Config:
    """Degree caps and conventions for a verifier run.

    Operator-side caps are the expensive ones (Macdonald expansions);
    combinatorial caps bound exhaustive path and partition sweeps.
    """

    profile: str = "quick"
    n_max_op: int = 4          # Delta-operator computations
    n_max_comb: int = 6        # labeled-path sweeps
    sym_cap: int = 5           # symmetry sweeps of rise/val
    omp_cap: int = 5           # |alpha| for the coefficient identities
    osp_equi_cap: int = 5      # |alpha| for four-statistic equidistribution
    gamma_cap: int = 5         # |alpha| for the insertion bijection
    xy_cap: int = 8            # two-column Yamanouchi sweeps
    bij_cap: int = 5           # exhaustive bijection sweeps
    eh_cap: int = 4            # n + ell for partially labeled paths
    lucas_cap: int = 10        # q-binomial divisibility sweep
    vars_n: int | None = None  # x-variable truncation (default: n per check)
    qtint_convention: str = "zero"
    cache_dir: str | None = field(
        default_factory=lambda: os.environ.get(ENV_CACHE_DIR)
    )

    @classmethod
    def quick(cls, **overrides) -> "Config":
        return replace(cls(), profile="quick", **overrides)

    @classmethod
    def full(cls, **overrides) -> "Config":
        base = cls(
            profile="full",
            n_max_op=6,
            n_max_comb=8,
            sym_cap=7,
            omp_cap=6,
            osp_equi_cap=7,
            gamma_cap=6,
            xy_cap=10,
            bij_cap=6,
            eh_cap=5,
            lucas_cap=12,
        )
        return replace(base, **overrides)

    @classmethod
    def for_profile(cls, profile: str, **overrides) -> "Config":
        if profile == "quick":
            return cls.quick(**overrides)
        if profile == "full":
            return cls.full(**overrides)
        raise ValueError(f"unknown profile {profile!r}")

    def validate(self) -> None:
        """Refuse caps and a variable count that would make checks vacuous.

        With a cap below 1 a check runs no instance, and in fewer than one
        variable both sides of every x-expansion vanish; either way a run
        would pass without testing anything.
        """
        low = [name for name in CAP_FIELDS if getattr(self, name) < 1]
        if low:
            raise ValueError(f"caps must be at least 1: {', '.join(low)}")
        if self.vars_n is not None and self.vars_n < 1:
            raise ValueError(f"vars_n must be at least 1, got {self.vars_n}")

    def vars_for(self, n: int) -> int:
        return self.vars_n if self.vars_n is not None else n

"""Physical parameters and the closed-form levels, in pure Python.

The planar oscillator's unperturbed levels are known in closed form,

    E_n(±) = ± m c^2 sqrt(1 + 4 hbar wt n / (m c^2)),

with wt = omega - omega_c / 2 the reduced frequency; `model` derives the same
spectrum from the J-sector blocks. This module loads no numpy: with `fock`
and `errors`, it is all the command line needs to resolve and check every
input before the solver stack is imported.
"""

from __future__ import annotations

import math

from .errors import ComputationError, UsageError

POSITIVE = "+"
NEGATIVE = "-"
BRANCHES = (POSITIVE, NEGATIVE)
# Window for locating unperturbed clusters, in units of m c^2.
CLUSTER_WINDOW = 1e-9


class _Value:
    """Base of the immutable value types, in place of frozen dataclasses, whose
    import loads inspect, ast and dis. The fields are the annotated class
    attributes, a value being the default, after those of the bases. Instances
    run `_check`, compare, hash and print by type and fields, and pickle."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = (*cls._fields, *cls.__annotations__)

    def __init__(self, *args, **kwargs):
        values = {k: getattr(type(self), k) for k in self._fields if hasattr(type(self), k)}
        values.update(zip(self._fields, args), **kwargs)
        if len(args) > len(self._fields) or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}")
        self.__dict__.update((k, values[k]) for k in self._fields)
        self._check()

    def _check(self) -> None:
        """Raise UsageError for fields that do not make a valid value."""

    def replace(self, **changes):
        """A copy with `changes`, built and checked anew."""
        return type(self)(**{**vars(self), **changes})

    def __setattr__(self, key, value=None):
        raise AttributeError(f"cannot assign to field {key!r}")
    __delattr__ = __setattr__

    def __eq__(self, other):
        return type(other) is type(self) and vars(other) == vars(self)

    def __hash__(self):
        return hash((type(self), *vars(self).values()))

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


class ModelParams(_Value):
    """Physical inputs plus derived dimensionless quantities.

    Defaults give natural units (m = c = hbar = |e| = 1); reports quote
    energies in units of m c^2 and first-order shifts in units of
    a c m hbar wt.
    """

    omega: float
    b_field: float = 0.0
    gup_a: float = 0.0
    mass: float = 1.0
    light_speed: float = 1.0
    hbar: float = 1.0
    charge: float = 1.0

    def _check(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise UsageError(f"{name} must be finite, got {value}")
        if self.mass <= 0.0:
            raise UsageError(f"mass must be positive, got {self.mass}")
        if self.light_speed <= 0.0:
            raise UsageError(f"light speed must be positive, got {self.light_speed}")
        if self.hbar <= 0.0:
            raise UsageError(f"hbar must be positive, got {self.hbar}")
        if self.charge <= 0.0:
            raise UsageError(f"charge magnitude must be positive, got {self.charge}")
        if self.omega < 0.0:
            raise UsageError(f"oscillator frequency must be >= 0, got {self.omega}")
        if self.gup_a < 0.0:
            raise UsageError(f"deformation parameter must be >= 0, got {self.gup_a}")
        # finite inputs can still give scales beyond the float range
        for name in ("cyclotron_frequency", "omega_tilde", "rest_energy", "lam",
                     "alpha_gup", "shift_unit", "critical_field"):
            try:
                value = getattr(self, name)
            except (OverflowError, ZeroDivisionError):
                value = math.inf
            if not math.isfinite(value):
                raise UsageError(
                    f"derived {name} is not finite for these inputs, got {value}"
                )

    @property
    def cyclotron_frequency(self) -> float:
        return self.charge * self.b_field / (self.mass * self.light_speed)

    @property
    def omega_tilde(self) -> float:
        return self.omega - 0.5 * self.cyclotron_frequency

    @property
    def rest_energy(self) -> float:
        return self.mass * self.light_speed ** 2

    @property
    def lam(self) -> float:
        """Dimensionless level-spacing parameter hbar wt / (m c^2)."""
        return self.hbar * self.omega_tilde / self.rest_energy

    @property
    def alpha_gup(self) -> float:
        """Dimensionless deformation strength a m c."""
        return self.gup_a * self.mass * self.light_speed

    @property
    def shift_unit(self) -> float:
        """The natural scale of first-order corrections, a c m hbar wt."""
        return (
            self.gup_a * self.light_speed * self.mass * self.hbar * self.omega_tilde
        )

    @property
    def critical_field(self) -> float:
        """Field at which the reduced frequency vanishes: 2 omega m c / |e|."""
        return 2.0 * self.omega * self.mass * self.light_speed / self.charge

    def with_field(self, b_field: float) -> "ModelParams":
        return self.replace(b_field=b_field)


class SpinorLevel(_Value):
    """One analytic level: quantum number, branch, energy and spinor weights."""

    n: int
    branch: str
    energy: float
    c_n: float
    d_n: float


def _level(p: ModelParams, n: int, branch: str, lam: float) -> tuple[float, float]:
    """(energy, e) of level (n, branch) at the level-spacing parameter lam:
    e = sqrt(1 + 4 lam n), and the energy ± m c^2 e."""
    if n < 0:
        raise UsageError(f"level index must be >= 0, got {n}")
    if branch not in BRANCHES:
        raise UsageError(f"branch must be '+' or '-', got {branch!r}")
    radicand = 1.0 + 4.0 * lam * n
    if not math.isfinite(radicand):
        raise UsageError(f"1 + 4 lam n is not finite for level n={n} at lam = {lam!r}")
    if radicand < 0.0:
        raise ComputationError(f"branch collapse: level n={n} has no real energy at "
                               f"reduced frequency {p.omega_tilde}")
    e = math.sqrt(radicand)
    energy = (1.0 if branch == POSITIVE else -1.0) * p.rest_energy * e
    if not math.isfinite(energy):
        raise UsageError(f"energy of level n={n} overflows at m c^2 = {p.rest_energy!r}")
    return energy, e


def _spinor(n: int, branch: str, energy: float, e: float) -> SpinorLevel:
    """Level (n, branch) of energy ± m c^2 e, with the weights
    c_n(±) = ± sqrt((e ± 1) / (2 e)) (upper sign for +) and
    d_n(±) = sqrt((e -+ 1) / (2 e)). At n = 0, e = 1: branch + is the pure
    upper component (1, 0), branch - the pure lower one (-0, 1)."""
    upper, lower = (math.sqrt((e + s) / (2.0 * e)) for s in (1.0, -1.0))
    c, d = (upper, lower) if branch == POSITIVE else (-lower, upper)
    return SpinorLevel(n=n, branch=branch, energy=energy, c_n=c, d_n=d)


def landau_level(p: ModelParams, n: int, branch: str = POSITIVE) -> float:
    """Closed-form level energy ± m c^2 sqrt(1 + 4 hbar wt n / (m c^2))."""
    return _level(p, n, branch, p.lam)[0]


def spinor_level(p: ModelParams, n: int, branch: str = POSITIVE) -> SpinorLevel:
    """Analytic eigenstate data for level n at the signed lam (`_spinor`). The
    ground level is a pure upper-component state; its negative-branch partner
    has identically vanishing weight and does not exist."""
    energy, e = _level(p, n, branch, p.lam)
    if e == 0.0:
        raise ComputationError(f"branch collapse: level n={n} at reduced frequency "
                               f"{p.omega_tilde}")
    if n == 0 and branch == NEGATIVE:
        raise UsageError("the ground level has no negative branch: its weight "
                         "vanishes identically")
    return _spinor(n, branch, energy, e)


def abs_level(p: ModelParams, n: int, branch: str) -> SpinorLevel | None:
    """The level (n, branch) of the operators at these params, None where it
    does not exist: `spinor_level`'s closed forms at |lam|, whose UsageErrors
    it raises. The operators follow |wt| on both sides of the critical field
    (CONVENTIONS.md), so the side sets only the branch of the rest level
    n = 0, + up to the critical field (wt >= 0) and - beyond it, and where
    `perturbation._placement` puts a state's quanta."""
    rest = NEGATIVE if p.omega_tilde < 0.0 else POSITIVE
    level = _spinor(n, branch, *_level(p, n, branch, abs(p.lam)))
    return level if n > 0 or branch == rest else None

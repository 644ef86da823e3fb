"""Truncated formal power series with exact integer coefficients.

A :class:`Series` stores the coefficients ``c_0 .. c_N`` of a univariate
power series up to an explicit truncation order ``N``.  Arithmetic always
truncates to the minimum of the operands' orders, so a result never claims
a coefficient that both inputs do not determine.  Coefficients are plain
Python ints, hence arbitrary precision and every comparison is exact.
Division is by a series with constant term +1 or -1, the units over the
integers, so a quotient keeps the smaller truncation order of its operands.
"""

from itertools import compress, count
from operator import add, attrgetter


class _Record:
    """Base of the package's records: equality, hashing, repr and pickling
    over the fields named in ``__slots__``, as a frozen dataclass gives them,
    without importing :mod:`dataclasses`.  A record of another class
    compares as NotImplemented, and fields cannot be assigned after
    ``__init__``."""

    __slots__ = ()

    def __init_subclass__(cls):
        # ``_values``: the fields as one tuple, read in C
        get = attrgetter(*cls.__slots__)
        cls._values = property(get if len(cls.__slots__) > 1 else lambda self: (get(self),))
        # each field's slot descriptor setter, which bypasses the ``__setattr__`` guard
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *values):
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class SeriesError(Exception):
    """Base class for series arithmetic errors."""


class NonUnitConstantTerm(SeriesError):
    """Raised when dividing by a series whose constant term is not +1 or -1."""


def _mul_add(out: list, a, b, va: int, vb: int) -> None:
    """Add the product of the coefficient sequences a and b into ``out`` in
    place, truncated at x^(len(out) - 1): out[i+j] += a_i b_j over i >= va
    and j >= vb, where a and b vanish below those indices."""
    n = len(out) - 1
    for i in range(va, n - vb + 1):
        ai = a[i]
        if ai:
            for j in range(vb, n - i + 1):
                out[i + j] += ai * b[j]


def _require_order(order: int) -> None:
    """A series of order n holds c_0 .. c_n, so n must not be negative."""
    if order < 0:
        raise ValueError("a series needs at least its constant coefficient")


def _require_unit(c0: int) -> None:
    if c0 not in (1, -1):
        raise NonUnitConstantTerm(
            f"constant term {c0} is not invertible over the integers"
        )


class Series(_Record):
    """Integer power series truncated at ``order = len(coeffs) - 1``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        if not isinstance(coeffs, tuple):
            coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least its constant coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    # ---------------------------------------------------------------- basics

    @staticmethod
    def zero(order: int) -> "Series":
        return Series((0,) * (order + 1))

    @staticmethod
    def one(order: int) -> "Series":
        _require_order(order)
        return Series((1,) + (0,) * order)

    @staticmethod
    def x(order: int) -> "Series":
        _require_order(order)
        if order == 0:
            raise ValueError("x does not fit in a series of order 0")
        return Series((0, 1) + (0,) * (order - 1))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> int:
        """Coefficient of x^k; undefined beyond the truncation order."""
        if not 0 <= k <= self.order:
            where = "is below x^0" if k < 0 else f"beyond truncation order {self.order}"
            raise IndexError(f"coefficient {k} {where}")
        return self.coeffs[k]

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None if all vanish."""
        return next(compress(count(), self.coeffs), None)

    def truncate(self, order: int) -> "Series":
        _require_order(order)
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return Series(self.coeffs[: order + 1])

    # ------------------------------------------------------------ arithmetic

    def __add__(self, other):
        if isinstance(other, int):
            return Series((self.coeffs[0] + other,) + self.coeffs[1:])
        if not isinstance(other, Series):
            return NotImplemented
        return Series(tuple(map(add, self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Series(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, (int, Series)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return Series(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        va, vb = self.valuation(), other.valuation()
        if va is None or vb is None or va + vb > n:
            return Series.zero(n)
        # schoolbook over the nonzero parts: a_i b_j for i >= va, j >= vb
        a, b = self.coeffs, other.coeffs
        out = [0] * (n + 1)
        if other is self:
            # a square: each cross product a_i a_j (i < j) once, doubled
            for i in range(va, n // 2 + 1):
                ai = a[i]
                if ai:
                    out[2 * i] += ai * ai
                    twice = 2 * ai
                    for j in range(i + 1, n - i + 1):
                        out[i + j] += twice * a[j]
            return Series(tuple(out))
        _mul_add(out, a, b, va, vb)
        return Series(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("series powers need a non-negative integer exponent")
        result = Series.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def reciprocal(self) -> "Series":
        """Multiplicative inverse to the truncation order: the long division of one."""
        return Series.one(self.order).div(self)

    def div(self, other: "Series") -> "Series":
        """Quotient self / other by one pass of long division,
        q_k = d_0 * (a_k - sum_{j=1..k} d_j q_(k-j)), for a divisor whose
        constant term d_0 is +1 or -1 (the only units over the integers)."""
        a, d = self.coeffs, other.coeffs
        d0 = d[0]
        _require_unit(d0)
        n = min(self.order, other.order)
        terms = [(j, dj) for j, dj in enumerate(d[1 : n + 1], 1) if dj]
        q = [0] * (n + 1)
        for k in range(n + 1):
            s = a[k]
            for j, dj in terms:
                if j > k:
                    break
                if q[k - j]:
                    s -= dj * q[k - j]
            q[k] = s if d0 == 1 else -s
        return Series(tuple(q))

    # --------------------------------------------------------------- display

    def __repr__(self):
        terms = [
            f"{c}*x^{k}" if k > 1 else f"{c}*x" if k else str(c)
            for k, c in enumerate(self.coeffs)
            if c
        ]
        return f"Series[{self.order}]({' + '.join(terms) or '0'})"


"""The complexification A (x) C of a Cayley-Dickson algebra A.

Elements are pairs w = x + iy with x, y in A and a central imaginary unit i
that commutes with everything.  The product is

    (x + iy)(u + iv) = (xu - yv) + i(xv + yu),

a central complex scalar p + iq acts as (p + iq)(x + iy) = (px - qy) + i(qx + py),
and the complex conjugation is x - iy.  Stem functions take values here.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .algebra import (
    AlgebraElement,
    AlgebraMismatchError,
    AlgebraTag,
    _check_same_tag,
    multiply_batch,
)

__all__ = [
    "ComplexifiedElement",
    "c_multiply",
    "c_multiply_batch",
    "complex_conjugate",
]


@dataclass(frozen=True, eq=False)
class ComplexifiedElement:
    """w = re + i*im with re, im in the base algebra."""

    re: AlgebraElement
    im: AlgebraElement

    def __post_init__(self) -> None:
        if self.re.tag is not self.im.tag and self.re.tag != self.im.tag:
            raise AlgebraMismatchError("real and imaginary parts from different algebras")

    @property
    def tag(self) -> AlgebraTag:
        return self.re.tag

    def __add__(self, other: "ComplexifiedElement") -> "ComplexifiedElement":
        return ComplexifiedElement(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexifiedElement") -> "ComplexifiedElement":
        return ComplexifiedElement(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "ComplexifiedElement":
        return ComplexifiedElement(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, ComplexifiedElement):
            return c_multiply(self, other)
        if isinstance(other, (int, float, np.floating, np.integer)):
            return ComplexifiedElement(self.re * float(other), self.im * float(other))
        if isinstance(other, complex):
            p, q = other.real, other.imag
            return ComplexifiedElement(self.re * p - self.im * q, self.re * q + self.im * p)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex, np.floating, np.integer)):
            return self.__mul__(other)
        return NotImplemented

    def norm(self) -> float:
        return float(np.hypot(self.re.norm(), self.im.norm()))

    def __repr__(self) -> str:
        return f"<{self.tag.name}_C re={self.re!r} im={self.im!r}>"


def c_multiply(w: ComplexifiedElement, v: ComplexifiedElement) -> ComplexifiedElement:
    """(x + iy)(u + iv): row 0 of c_multiply_batch on the coefficient vectors."""
    _check_same_tag(w.re, v.re)
    re, im = c_multiply_batch(w.tag, (w.re.coeffs, w.im.coeffs), (v.re.coeffs, v.im.coeffs))
    return ComplexifiedElement(AlgebraElement(w.tag, re), AlgebraElement(w.tag, im))


def c_multiply_batch(
    tag: AlgebraTag,
    A: tuple[np.ndarray, np.ndarray],
    B: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise complexified product on ((N,dim),(N,dim)) component arrays."""
    a_re, a_im = A
    b_re, b_im = B
    re = multiply_batch(tag, a_re, b_re) - multiply_batch(tag, a_im, b_im)
    im = multiply_batch(tag, a_re, b_im) + multiply_batch(tag, a_im, b_re)
    return re, im


def complex_conjugate(w: ComplexifiedElement) -> ComplexifiedElement:
    """w-bar: negate the central imaginary part."""
    return ComplexifiedElement(w.re, -w.im)


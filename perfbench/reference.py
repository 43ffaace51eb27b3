"""Reference arithmetic the benchmark checks hyperslice against.

Nothing here imports hyperslice.  Algebra elements are float coefficient
vectors over e_0..e_{dim-1} (dim 4 or 8); every function broadcasts over
leading axes.

* `mul` is the Cayley-Dickson product written straight from the doubling
  rule in the package README, (a, b)(c, d) = (ac - conj(d) b, d a + b conj(c)),
  applied recursively to the two halves of a coefficient vector.
* `cx_mul` is the product of the complexified algebra,
  (x + iy)(u + iv) = (xu - yv) + i(xv + yu), on complex coefficient vectors
  whose real part is x and imaginary part is y.
* `lift` turns a stem value F = F1 + i F2 into f(alpha + beta J) = F1 + J F2.

Closed-form stem values live next to the workloads that use them.
"""

from __future__ import annotations

import numpy as np


def conj(a: np.ndarray) -> np.ndarray:
    """Algebra conjugation: negate every coefficient but the real one."""
    out = np.array(a, copy=True)
    out[..., 1:] = -out[..., 1:]
    return out


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m = a.shape[-1]
    if m == 1:
        return a * b
    h = m // 2
    p, q = a[..., :h], a[..., h:]
    r, s = b[..., :h], b[..., h:]
    first = mul(p, r) - mul(conj(s), q)
    second = mul(s, p) + mul(q, conj(r))
    first, second = np.broadcast_arrays(first, second)
    return np.concatenate([first, second], axis=-1)


def cx_mul(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    x, y = np.real(w), np.imag(w)
    u, t = np.real(v), np.imag(v)
    return (mul(x, u) - mul(y, t)) + 1j * (mul(x, t) + mul(y, u))


def lift(F: np.ndarray, J: np.ndarray) -> np.ndarray:
    """f = F1 + J F2 for a stem value F (complex coefficients) on the slice of unit J."""
    return np.real(F) + mul(J, np.imag(F))


def norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(np.abs(a) ** 2, axis=-1))

"""Witness identities: central exponents in the Heisenberg group, torsion
inverse witnesses, and nonnegative-combination inverse certificates on Z."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .groups import GroupElement, Heisenberg, identity, multiply


#: (k1, k2, k3, k4, n, m, exponent_pos, exponent_neg, holds)
GridRow = tuple[int, int, int, int, int, int, int, int, bool]


@dataclass(frozen=True)
class NilpotentGridResult:
    rows: tuple[GridRow, ...]

    @property
    def cases(self) -> int:
        return len(self.rows)

    @property
    def all_hold(self) -> bool:
        return all(row[8] for row in self.rows)


def nilpotent_identity_grid(k_values: Iterable[int],
                            n_values: Iterable[int],
                            m_values: Iterable[int]) -> NilpotentGridResult:
    """Multiply out c^n d^m e^n f^m and d^m c^n f^m e^n in the Heisenberg
    group over a full (k1..k4, n, m) grid.

    Here z = [a, b] is the central generator, c = a z^k1, d = b z^k2,
    e = a^-1 z^k3, f = b^-1 z^k4. Both products are central; the first must
    have exponent n*m + L and the second -n*m + L, where
    L = (k1 + k3) n + (k2 + k4) m.

    Multiplies raw payload triples with the Heisenberg group law. The
    powers of c, d, e and f depend on one k each, so each is tabulated once
    per k and shared across the grid: large grids finish in well under a
    second. One row per case, in (k1, k2, k3, k4, n, m) order.
    """
    mul = Heisenberg().mul

    def powers(base, upto):
        acc = (0, 0, 0)
        out = [acc]
        for _ in range(upto):
            acc = mul(acc, base)
            out.append(acc)
        return out

    ks = sorted(set(int(k) for k in k_values))
    ns = sorted(set(int(n) for n in n_values))
    ms = sorted(set(int(m) for m in m_values))
    if any(n < 1 for n in ns) or any(m < 1 for m in ms):
        raise ValueError("n and m must be positive")
    n_max, m_max = max(ns), max(ms)
    cpows = {k: powers((1, 0, k), n_max) for k in ks}
    dpows = {k: powers((0, 1, k), m_max) for k in ks}
    epows = {k: powers((-1, 0, k), n_max) for k in ks}
    fpows = {k: powers((0, -1, k), m_max) for k in ks}
    rows: list[GridRow] = []
    for k1 in ks:
        cpow = cpows[k1]
        for k2 in ks:
            dpow = dpows[k2]
            for k3 in ks:
                epow = epows[k3]
                for k4 in ks:
                    fpow = fpows[k4]
                    kn, km = k1 + k3, k2 + k4
                    for n in ns:
                        cn, en = cpow[n], epow[n]
                        for m in ms:
                            ell = kn * n + km * m
                            p = mul(mul(cn, dpow[m]), mul(en, fpow[m]))
                            q = mul(mul(dpow[m], cn), mul(fpow[m], en))
                            ok = (p[0] == 0 and p[1] == 0 and p[2] == n * m + ell
                                  and q[0] == 0 and q[1] == 0
                                  and q[2] == -n * m + ell)
                            rows.append((k1, k2, k3, k4, n, m, p[2], q[2], ok))
    return NilpotentGridResult(tuple(rows))


@dataclass(frozen=True)
class TorsionInverseWitness:
    k: int
    witness: GroupElement


def torsion_inverse_witness(x: GroupElement, y: GroupElement,
                            max_k: int) -> TorsionInverseWitness | None:
    """Search for the least k <= max_k with (xy)^k = e and return y (xy)^(k-1).

    Whenever such a k exists the returned witness equals x^-1, because
    x * y (xy)^(k-1) = (xy)^k = e. Absence within the budget returns None.
    """
    if max_k < 1:
        raise ValueError("max_k must be positive")
    e = identity(x.descriptor)
    xy = multiply(x, y)
    prev = e  # (xy)^(k-1)
    cur = xy  # (xy)^k
    for k in range(1, max_k + 1):
        if cur == e:
            return TorsionInverseWitness(k, multiply(y, prev))
        prev = cur
        cur = multiply(cur, xy)
    return None


@dataclass(frozen=True)
class ZInverseCertificate:
    """Nonnegative multiplicities (a, b) with a*y + b*x = -x for x, y in Z.

    With x > 0 > y the certificate is a = x copies of y and b = -y - 1
    copies of x; with x < 0 < y it is a = -x copies of y and b = y - 1
    copies of x. Both are sums of semigroup elements equal to -x.
    """

    x: int
    y: int
    y_copies: int
    x_copies: int

    @property
    def combination_value(self) -> int:
        return self.y_copies * self.y + self.x_copies * self.x

    @property
    def holds(self) -> bool:
        return self.combination_value == -self.x


def z_inverse_witness(x: int, y: int) -> ZInverseCertificate:
    """Certificate that -x is a nonnegative combination of x and an opposite-sign y."""
    if x == 0:
        raise ValueError("x must be nonzero")
    if x > 0:
        if y >= 0:
            raise ValueError("x > 0 requires y < 0")
        cert = ZInverseCertificate(x, y, y_copies=x, x_copies=-y - 1)
    else:
        if y <= 0:
            raise ValueError("x < 0 requires y > 0")
        cert = ZInverseCertificate(x, y, y_copies=-x, x_copies=y - 1)
    if not cert.holds:
        raise ArithmeticError("certificate does not sum to -x")
    return cert

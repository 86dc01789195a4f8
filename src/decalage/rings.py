"""Exact coefficient rings with a distinguished prime element.

Three principal ideal domains are supported, each with a chosen prime ``xi``
and exact arithmetic throughout:

* the integers with ``xi`` a prime number, ``xi <= 2**16``,
* ``F_p[t]`` with ``xi = t`` (p prime, p <= 2**16),
* ``Q[t]`` with ``xi = t`` (Fraction coefficients).

Their residue fields ``k = R/(xi)`` are ``PrimeField`` and ``RationalField``.
They share the element protocol and the row kernels with the rings, so one
``Matrix`` type holds entries of either, but they carry no Euclidean or xi
protocol: Smith forms run over R only (``rmatrix``) and eliminations over k
only (``kmatrix``).

Element encodings are plain immutable Python values: ``int`` for integers and
prime fields (in ``[0, p)`` for F_p), ``Fraction`` for rationals, and
ascending coefficient tuples (no trailing zeros, ``()`` is zero) for
polynomials.  Every encoding is falsy exactly at zero, so ``is_zero`` is
truthiness, defined once in ``BaseRing``, and the matrix code tests entries
for zero the same way.

Besides the element arithmetic, a ring serves four row kernels, which the
matrix layer calls once per row instead of two or three element methods per
entry: ``row_sub_multiple`` (the dense update ``row - f*src``),
``sparse_axpy`` (``out += c*src`` on ``{column: entry}`` rows, dropping
zeros), ``row_scale`` and ``row_residue``.  ``BaseRing`` builds them from
``add``/``mul``/``neg``/``residue``.  Each encoding has one definition of its
arithmetic: Z and Q share the native number kernels of ``_NumberRing``,
``PrimeField`` reduces native ``int`` arithmetic ``% p``, and
``PolynomialRing`` runs its coefficient loops on the base field's kernels,
so they run native over F_p and over Q too.  Every kernel returns the same
canonical elements as the element methods it replaces.
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = math.inf


class RingElementError(ValueError):
    """Raised when a string does not parse as a ring element."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class BaseRing:
    """Shared protocol for exact commutative domains.

    Every ring, the residue fields included, fixes the element encoding and
    implements ``zero``, ``one``, ``add``, ``neg``, ``mul``, ``inv_unit``
    (the inverse of a unit, so of any nonzero element of a field),
    ``format``, ``parse`` and ``describe``.

    The PIDs (``IntegerRing``, ``PolynomialRing``) add the Euclidean
    protocol that ``snf`` and ``FGModule`` read:

    * ``is_unit(a)``;
    * ``divrem(a, b)``, Euclidean division: a = q*b + r with size(r) <
      size(b), where ``size`` is the Euclidean valuation used for pivot
      selection, 0 only for a = 0; ``exact_div`` and ``divides`` are built
      from it;
    * ``unit_normalize(a)``: (u, n) with a = u*n, u a unit and n the normal
      form (nonnegative integers, monic polynomials); unit_normalize(0) =
      (1, 0);

    and the xi protocol: ``xi``, ``xi_valuation(a)`` (the largest e with
    xi**e | a; math.inf for a = 0), ``xi_divide(a, e)`` (exact division by
    xi**e), ``xi_power``, ``residue_field``, ``residue`` (the image in
    k = R/(xi)) and ``lift``, the canonical lift k -> R of a residue element.
    Everything downstream (matrices, complexes) only goes through these.
    """

    is_field = False

    def is_zero(self, a) -> bool:
        return not a

    # -- row kernels --------------------------------------------------------
    # A dense row is a sequence of elements; a sparse row is a dict
    # {column: nonzero entry}.  The defaults below are the reference built
    # from the element methods; subclasses override them for speed only.

    def row_sub_multiple(self, row, f, src) -> list:
        """The dense row ``row - f*src`` (rows of one length), as a list."""
        add, neg, mul = self.add, self.neg, self.mul
        return [add(x, neg(mul(f, y))) for x, y in zip(row, src)]

    def sparse_axpy(self, out: dict, c, src: dict) -> None:
        """``out += c*src`` in place over the entries of src, dropping zeros."""
        add, mul, zero = self.add, self.mul, self.zero()
        for j, x in src.items():
            y = add(out.get(j, zero), mul(c, x))
            if y:
                out[j] = y
            else:
                out.pop(j, None)

    def row_scale(self, c, row) -> list:
        """The dense row ``c*row``, as a list."""
        mul = self.mul
        return [mul(c, x) for x in row]

    def row_residue(self, row) -> list:
        """The dense row reduced entrywise to the residue field, as a list."""
        return list(map(self.residue, row))

    def exact_div(self, a, b):
        q, r = self.divrem(a, b)
        if not self.is_zero(r):
            raise ArithmeticError(f"{self.format(b)} does not divide {self.format(a)}")
        return q

    def divides(self, a, b) -> bool:
        """True when a | b."""
        if self.is_zero(a):
            return self.is_zero(b)
        _, r = self.divrem(b, a)
        return self.is_zero(r)

    def pow(self, a, e: int):
        acc = self.one()
        for _ in range(e):
            acc = self.mul(acc, a)
        return acc

    def xi_power(self, e: int):
        return self.pow(self.xi, e)


class _NumberRing(BaseRing):
    """Z and Q: elements are Python numbers, exact under their own ``+``, ``-``, ``*``."""

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def row_sub_multiple(self, row, f, src):
        return [x - f * y for x, y in zip(row, src)]

    def sparse_axpy(self, out, c, src):
        for j, x in src.items():
            y = out.get(j, 0) + c * x
            if y:
                out[j] = y
            else:
                out.pop(j, None)

    def row_scale(self, c, row):
        return [c * x for x in row]

    def format(self, a):
        return str(a)


# ---------------------------------------------------------------------------
# fields


class PrimeField(BaseRing):
    """F_p, elements stored as ints in [0, p)."""

    kind = "prime-field"
    is_field = True

    def __init__(self, p: int):
        if p > 2 ** 16 or not _is_prime(p):
            raise ValueError(f"field characteristic must be a prime <= 2**16, got {p}")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def row_sub_multiple(self, row, f, src):
        p = self.p
        return [(x - f * y) % p for x, y in zip(row, src)]

    def sparse_axpy(self, out, c, src):
        p = self.p
        for j, x in src.items():
            y = (out.get(j, 0) + c * x) % p
            if y:
                out[j] = y
            else:
                out.pop(j, None)

    def row_scale(self, c, row):
        p = self.p
        return [(c * x) % p for x in row]

    def inv_unit(self, a):
        return pow(a, -1, self.p)

    def format(self, a):
        return str(a % self.p)

    def parse(self, s):
        try:
            return int(s.strip()) % self.p
        except ValueError as exc:
            raise RingElementError(f"bad F_{self.p} element: {s!r}") from exc

    def describe(self):
        return {"kind": self.kind, "p": self.p}

    def __repr__(self):
        return f"<F_{self.p}>"


class RationalField(_NumberRing):
    """Q, elements stored as Fraction."""

    kind = "rationals"
    is_field = True

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def inv_unit(self, a):
        return 1 / a

    def parse(self, s):
        try:
            return Fraction(s.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise RingElementError(f"bad rational: {s!r}") from exc

    def describe(self):
        return {"kind": self.kind}

    def __repr__(self):
        return "<Q>"


# ---------------------------------------------------------------------------
# the integers


class IntegerRing(_NumberRing):
    """Z with a distinguished prime xi = p."""

    kind = "z"

    def __init__(self, xi: int):
        if xi > 2 ** 16 or not _is_prime(xi):
            raise ValueError(f"xi must be a prime <= 2**16, got {xi}")
        self._xi = xi
        self._k = PrimeField(xi)

    def __eq__(self, other):
        return isinstance(other, IntegerRing) and other._xi == self._xi

    def __hash__(self):
        return hash(("Z", self._xi))

    def zero(self):
        return 0

    def one(self):
        return 1

    def row_residue(self, row):
        xi = self._xi
        return [x % xi for x in row]

    def is_unit(self, a):
        return a in (1, -1)

    def inv_unit(self, a):
        if a not in (1, -1):
            raise ArithmeticError(f"{a} is not a unit of Z")
        return a

    def divrem(self, a, b):
        # Symmetric remainder keeps entries small during elimination.
        # Python's divmod gives r with the sign of b and |r| < |b|; when the
        # remainder is over half, r - b is the smaller representative for
        # either sign of b.
        q, r = divmod(a, b)
        if 2 * abs(r) > abs(b):
            q += 1
            r -= b
        return q, r

    def size(self, a):
        return abs(a)

    def unit_normalize(self, a):
        if a < 0:
            return -1, -a
        return 1, a

    @property
    def xi(self):
        return self._xi

    def xi_valuation(self, a):
        if a == 0:
            return INF
        e = 0
        while a % self._xi == 0:
            a //= self._xi
            e += 1
        return e

    def xi_divide(self, a, e: int):
        q, r = divmod(a, self._xi ** e)
        if r:
            raise ArithmeticError(f"{self._xi}**{e} does not divide {a}")
        return q

    def residue_field(self):
        return self._k

    def residue(self, a):
        return a % self._xi

    def lift(self, c):
        return int(c % self._xi)

    def parse(self, s):
        try:
            return int(s.strip())
        except ValueError as exc:
            raise RingElementError(f"bad integer: {s!r}") from exc

    def describe(self):
        return {"kind": self.kind, "xi": str(self._xi)}

    def __repr__(self):
        return f"<Z, xi={self._xi}>"


# ---------------------------------------------------------------------------
# univariate polynomials over a field, xi = t


class PolynomialRing(BaseRing):
    """F[t] for F a prime field or Q, with xi = t.

    Elements are tuples of base-field coefficients in ascending powers with
    no trailing zeros; () is zero.  The coefficient loops of ``add``,
    ``neg`` and ``divrem`` are row kernels of the base field, so they run
    native over F_p and over Q.  ``mul`` accumulates coefficient products
    with the coefficients' own ``+`` and ``*`` (``int`` for F_p,
    ``Fraction`` for Q, both exact) and brings the result to normal form
    with one ``row_scale`` by one.
    """

    def __init__(self, base: BaseRing):
        if not base.is_field:
            raise ValueError("polynomial coefficients must come from a field")
        self.base = base
        self.kind = "fp-poly" if base.kind == "prime-field" else "q-poly"
        self._minus_one = base.neg(base.one())

    def __eq__(self, other):
        return isinstance(other, PolynomialRing) and other.base == self.base

    def __hash__(self):
        return hash(("poly", self.base))

    def _trim(self, coeffs):
        n = len(coeffs)
        while n > 0 and not coeffs[n - 1]:
            n -= 1
        return tuple(coeffs[:n])

    def from_coeffs(self, coeffs) -> tuple:
        return self._trim([self.base.parse(c) if isinstance(c, str) else c for c in coeffs])

    def zero(self):
        return ()

    def one(self):
        return (self.base.one(),)

    def add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        if not b:
            return a
        n = len(b)
        low = self.base.row_sub_multiple(a[:n], self._minus_one, b)
        if len(a) > n:
            return tuple(low) + a[n:]
        return self._trim(low)

    def neg(self, a):
        return tuple(self.base.row_scale(self._minus_one, a))

    def mul(self, a, b):
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return ()
        if len(a) == 1:
            return tuple(self.base.row_scale(a[0], b))
        base = self.base
        out = [base.zero()] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return self._trim(base.row_scale(base.one(), out))

    def is_unit(self, a):
        return len(a) == 1

    def inv_unit(self, a):
        if len(a) != 1:
            raise ArithmeticError("not a unit polynomial")
        return (self.base.inv_unit(a[0]),)

    def divrem(self, a, b):
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        base = self.base
        r = list(a)
        nb = len(b)
        q = [base.zero()] * max(len(a) - nb + 1, 1)
        inv_lead = base.inv_unit(b[-1])
        while len(r) >= nb:
            if r[-1]:
                c = base.mul(r[-1], inv_lead)
                d = len(r) - nb
                q[d] = c
                r[d:] = base.row_sub_multiple(r[d:], c, b)
            r.pop()
        return self._trim(q), self._trim(r)

    def size(self, a):
        return len(a)

    def unit_normalize(self, a):
        if not a:
            return self.one(), ()
        lead = a[-1]
        inv = self.base.inv_unit(lead)
        return (lead,), tuple(self.base.row_scale(inv, a))

    @property
    def xi(self):
        return (self.base.zero(), self.base.one())

    def xi_valuation(self, a):
        if not a:
            return INF
        for i, c in enumerate(a):
            if c:
                return i
        return INF

    def xi_divide(self, a, e: int):
        if not a:
            return ()
        if self.xi_valuation(a) < e:
            raise ArithmeticError("not divisible by t**e")
        return tuple(a[e:])

    def residue_field(self):
        return self.base

    def residue(self, a):
        return a[0] if a else self.base.zero()

    def row_residue(self, row):
        z = self.base.zero()
        return [x[0] if x else z for x in row]

    def lift(self, c):
        return self._trim([c])

    def format(self, a):
        if not a:
            return "0"
        parts = []
        for e in range(len(a) - 1, -1, -1):
            c = a[e]
            if self.base.is_zero(c):
                continue
            cs = self.base.format(c)
            if e == 0:
                term = cs
            elif cs == "1":
                term = "t" if e == 1 else f"t^{e}"
            elif cs == "-1":
                term = "-t" if e == 1 else f"-t^{e}"
            else:
                term = f"{cs}*t" if e == 1 else f"{cs}*t^{e}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += term if term.startswith("-") else "+" + term
        return out

    def parse(self, s):
        text = s.strip().replace(" ", "")
        if not text:
            raise RingElementError("empty polynomial")
        if text == "0":
            return ()
        # split into signed terms
        terms = []
        buf = ""
        for i, ch in enumerate(text):
            if ch in "+-" and i > 0 and text[i - 1] not in "+-*^/":
                terms.append(buf)
                buf = ch if ch == "-" else ""
            else:
                buf += ch
        terms.append(buf)
        coeffs: dict[int, object] = {}
        for term in terms:
            if not term or term in "+-":
                raise RingElementError(f"bad polynomial: {s!r}")
            if "t" in term:
                head, _, tail = term.partition("t")
                if head.endswith("*"):
                    head = head[:-1]
                    if not head or head.endswith("*"):
                        raise RingElementError(f"bad term {term!r}")
                    c = self.base.parse(head)
                elif head in ("", "+"):
                    c = self.base.one()
                elif head == "-":
                    c = self.base.neg(self.base.one())
                else:
                    raise RingElementError(f"bad term {term!r}")
                if tail == "":
                    e = 1
                elif tail.startswith("^"):
                    try:
                        e = int(tail[1:])
                    except ValueError as exc:
                        raise RingElementError(f"bad exponent in {term!r}") from exc
                else:
                    raise RingElementError(f"bad term {term!r}")
                if e < 0:
                    raise RingElementError(f"negative exponent in {term!r}")
            else:
                c = self.base.parse(term)
                e = 0
            prev = coeffs.get(e, self.base.zero())
            coeffs[e] = self.base.add(prev, c)
        out = [self.base.zero()] * (max(coeffs) + 1)
        for e, c in coeffs.items():
            out[e] = c
        return self._trim(out)

    def describe(self):
        d = {"kind": self.kind, "xi": "t"}
        if self.kind == "fp-poly":
            d["p"] = self.base.p
        return d

    def __repr__(self):
        name = f"F_{self.base.p}" if self.kind == "fp-poly" else "Q"
        return f"<{name}[t], xi=t>"


# ---------------------------------------------------------------------------


def ring_from_description(desc: dict) -> BaseRing:
    """The ring a description names; ``serialize`` checks its JSON types and keys first."""
    match desc:
        case {"kind": "z", "xi": xi}:
            if not (xi.isascii() and xi.isdigit()):
                raise RingElementError(f"xi must be a decimal prime, got {xi!r}")
            return IntegerRing(int(xi))
        case {"kind": "fp-poly" | "q-poly", "xi": xi} if xi != "t":
            raise RingElementError(f"xi must be t for polynomial rings, got {xi!r}")
        case {"kind": "fp-poly", "p": p}:
            return PolynomialRing(PrimeField(p))
        case {"kind": "q-poly"}:
            return PolynomialRing(RationalField())
        case {"kind": "prime-field", "p": p}:
            return PrimeField(p)
        case {"kind": "rationals"}:
            return RationalField()
    raise RingElementError(f"not a ring description: {desc!r}")


def make_ring(name: str, xi: str | None = None, char: int = 5) -> BaseRing:
    """CLI-facing constructor: ``xi`` defaults to 2 for z and to t for the polynomial
    rings, and ``char`` is the characteristic of fp-poly."""
    desc = {"kind": name, "xi": ("2" if name == "z" else "t") if xi is None else xi}
    if name == "fp-poly":
        desc["p"] = char
    return ring_from_description(desc)

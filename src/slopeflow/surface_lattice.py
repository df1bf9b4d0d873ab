"""Exact intersection arithmetic and Zariski decomposition on Kahler surfaces.

A surface is described by a finite divisor basis, the symmetric intersection
form on that basis, a finite list of irreducible curve classes generating the
effective cone, and a designated Kahler reference class.  Arithmetic is exact
on integers: each class has an integer view (numerators over one positive
denominator), the model clears its form and its curves' Gram matrix to
integers once, a pairing makes one Fraction and a sign test none.  Volumes of
big classes are Z^2 through the support-growing decomposition, each Gram
system solved by one fraction-free elimination that tests definiteness too.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError, ModelInconsistencyError, NotBigError

__all__ = [
    "DivisorClass",
    "SurfaceModel",
    "ZariskiDecomposition",
    "intersect",
    "is_nef",
    "is_kahler",
    "zariski",
    "volume",
    "load_surface_model",
]


def to_fraction(x) -> Fraction:
    """Coerce ints, strings and floats to Fraction.

    Floats go through their decimal string so that 0.3 means 3/10, not the
    binary expansion of the double closest to it.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        return Fraction(repr(x))
    return Fraction(x)


@dataclass(frozen=True)
class DivisorClass:
    """A (1,1) class given by rational coefficients over the model basis.

    ``_view`` is ``(nums, den)``, the coefficients over their least common
    denominator.  Each of coeffs and _view is made from the other on first use.
    """

    coeffs: tuple[Fraction, ...]

    def __getattr__(self, name):
        known = self.__dict__
        if name == "_view" and "coeffs" in known:
            den = math.lcm(*(c.denominator for c in self.coeffs))
            value = (tuple(c.numerator * (den // c.denominator) for c in self.coeffs), den)
        elif name == "coeffs" and "_view" in known:
            value = tuple(Fraction(v, known["_view"][1]) for v in known["_view"][0])
        else:
            raise AttributeError(name)
        known[name] = value
        return value

    @classmethod
    def of(cls, *coeffs) -> "DivisorClass":
        return cls(tuple(to_fraction(c) for c in coeffs))

    @classmethod
    def parse(cls, text: str) -> "DivisorClass":
        """Parse a comma list like ``"2,-0.3"`` in the declared basis order."""
        try:
            return cls(tuple(Fraction(tok.strip()) for tok in text.split(",")))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse divisor class {text!r}: {exc}") from exc

    def __add__(self, other: "DivisorClass", sign: int = 1) -> "DivisorClass":
        (x, dx), (y, dy) = self._view, other._view
        return _from_view([u * dy + sign * v * dx for u, v in zip(x, y, strict=True)], dx * dy)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self.__add__(other, -1)

    def __mul__(self, t) -> "DivisorClass":
        t, (nums, den) = to_fraction(t), self._view
        return _from_view([t.numerator * v for v in nums], t.denominator * den)

    __rmul__ = __mul__

    def __neg__(self) -> "DivisorClass":
        return self * -1

    def is_zero(self) -> bool:
        return not any(self._view[0])

    def as_floats(self) -> list[float]:
        return [float(c) for c in self.coeffs]

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coeffs)


def _from_view(nums: list[int], den: int) -> DivisorClass:
    """The class nums / den for den > 0, its view in lowest terms."""
    g = math.gcd(den, *nums)
    cls = object.__new__(DivisorClass)
    cls.__dict__["_view"] = (tuple([v // g for v in nums]), den // g)
    return cls


@dataclass
class SurfaceModel:
    """Divisor basis, intersection form, curve list and Kahler reference.

    The curve list must contain every irreducible curve that can appear in
    the negative part of a Zariski decomposition of the classes the model is
    used with; the decomposition routine does not discover curves.
    """

    basis_labels: tuple[str, ...]
    form: tuple[tuple[Fraction, ...], ...]
    curves: tuple[DivisorClass, ...]
    kahler_ref: DivisorClass

    def __post_init__(self):
        k = len(self.basis_labels)
        self.form = tuple(tuple(to_fraction(v) for v in row) for row in self.form)
        if any(len(row) != k for row in self.form) or len(self.form) != k:
            raise InputError("intersection form must be square over the basis")
        for i in range(k):
            for j in range(k):
                if self.form[i][j] != self.form[j][i]:
                    raise ModelInconsistencyError("intersection form is not symmetric")
        for c in self.curves:
            if len(c.coeffs) != k:
                raise InputError("curve coefficient length does not match basis")
        if len(self.kahler_ref.coeffs) != k:
            raise InputError("kahler_ref coefficient length does not match basis")
        # the form's nonzero entries (i, j, v) over d_form, the curves' rows
        # over d_c and their Gram matrix over d_c^2 d_form, all integers
        d = self._dform = math.lcm(*(v.denominator for row in self.form for v in row))
        form = [[v.numerator * (d // v.denominator) for v in row] for row in self.form]
        self._entries = tuple((i, j, v) for i, row in enumerate(form) for j, v in enumerate(row) if v)
        d = self._dc = math.lcm(*(c._view[1] for c in self.curves))
        self._rows = tuple(tuple(v * (d // c._view[1]) for v in c._view[0]) for c in self.curves)
        self._gram = tuple(tuple(_pair(r, row, self) for r in self._rows) for row in self._rows)
        x = self.kahler_ref._view[0]
        kk = _pair(x, x, self)
        if kk <= 0:
            raise ModelInconsistencyError("kahler_ref has non-positive self-intersection")
        # Hodge index: for the Kahler reference K, K.K > 0, the form G has signature
        # (1, k-1) exactly when (K.K) G - 2 (GK)(GK)^T, which is -(K.K)^2 on K and
        # (K.K) G on K's orthogonal complement, is negative definite
        gk = [sum(v * c for v, c in zip(row, x)) for row in form]
        hodge = [[kk * v - 2 * gi * gj for v, gj in zip(row, gk)] for row, gi in zip(form, gk)]
        if _support_solve(list(range(k)), [], hodge) is None:
            raise ModelInconsistencyError(f"intersection form must have signature (1,{k - 1})")
        if not all(v > 0 for v in _curve_nums(self.kahler_ref, self)):
            raise ModelInconsistencyError("kahler_ref pairs non-positively with a curve")

    @property
    def rank(self) -> int:
        return len(self.basis_labels)

    def divisor(self, *coeffs) -> DivisorClass:
        return DivisorClass.of(*coeffs)


@dataclass
class ZariskiDecomposition:
    """Splitting a = Z + N with Z nef against the curve list and Z.N = 0."""

    positive: DivisorClass
    negative: tuple[tuple[int, Fraction], ...] = field(default_factory=tuple)

    def negative_class(self, model: SurfaceModel) -> DivisorClass:
        return sum((w * model.curves[i] for i, w in self.negative), _from_view([0] * model.rank, 1))

    def reconstruct(self, model: SurfaceModel) -> DivisorClass:
        return self.positive + self.negative_class(model)


def _pair(x, y, model: SurfaceModel) -> int:
    """The numerator of x . y for integer vectors x, y, over d_form."""
    return sum(v * x[i] * y[j] for i, j, v in model._entries)


def _view_of(a: DivisorClass, model: SurfaceModel) -> tuple[tuple[int, ...], int]:
    if len(a._view[0]) != model.rank:
        raise InputError("divisor coefficient length does not match the model basis")
    return a._view


def _curve_nums(a: DivisorClass, model: SurfaceModel) -> list[int]:
    """Numerators of a.C over the curve list, all over d_a d_c d_form."""
    x = _view_of(a, model)[0]
    return [_pair(x, row, model) for row in model._rows]


def intersect(a: DivisorClass, b: DivisorClass, model: SurfaceModel) -> Fraction:
    """Exact bilinear pairing a . b through the model's intersection form."""
    (x, dx), (y, dy) = _view_of(a, model), _view_of(b, model)
    return Fraction(_pair(x, y, model), dx * dy * model._dform)


def is_nef(a: DivisorClass, model: SurfaceModel) -> bool:
    return all(v >= 0 for v in _curve_nums(a, model))


def is_kahler(a: DivisorClass, model: SurfaceModel) -> bool:
    """Numerical Kahler test: positive on every curve and positive square."""
    return all(v > 0 for v in _curve_nums(a, model)) and _pair(a._view[0], a._view[0], model) > 0


def _support_solve(support: list[int], cols: list[list[int]], gram):
    """One fraction-free (Bareiss) pass on G, the integer matrix `gram` on `support`
    (the curves' Gram matrix on the support curves, in the Zariski walks).

    Its pivots are G's leading principal minors: None unless they alternate in
    sign from negative (G negative definite).  Clearing above and below each
    pivot ends at det G times the identity: returns (|det G|, |det G| G^-1 cols).
    """
    k = len(support)
    rows = [[gram[i][j] for j in support] + [col[i] for col in cols] for i in support]
    prev = 1
    for p in range(k):
        piv = rows[p][p]
        if piv == 0 or (piv > 0) != (p % 2 == 1):
            return None
        for r in range(k):
            if r != p:
                f = rows[r][p]
                rows[r] = [(piv * v - f * w) // prev for v, w in zip(rows[r], rows[p])]
        prev = piv
    return abs(prev), [[row[c] if prev > 0 else -row[c] for row in rows] for c in range(k, k + len(cols))]


def _curve_sum(pairs: Iterable[tuple[int, int]], den: int, model: SurfaceModel) -> DivisorClass:
    """The class sum of w R_i / den over (i, w) pairs, R_i the curves' integer rows."""
    acc = [0] * model.rank
    for i, w in pairs:
        acc = [s + w * c for s, c in zip(acc, model._rows[i])]
    return _from_view(acc, den)


def _try_zariski(a: DivisorClass, model: SurfaceModel) -> ZariskiDecomposition | None:
    """Iterative support growth; None when the result certifies a is not big.

    Start from the curves a pairs negatively with, solve the orthogonality
    system on their span, and enlarge the support while the candidate nef part
    still pairs negatively with some curve.  The loop terminates because the
    curve list is finite and the support only grows.  The weights come out as
    y_i d_c / (d d_a), so the negative part is sum y_i R_i / (d d_a).
    """
    nums, da = _curve_nums(a, model), a._view[1]
    support = [i for i, v in enumerate(nums) if v < 0]
    while True:
        solved = _support_solve(support, [nums], model._gram)
        if solved is None:
            return None
        det, (y,) = solved
        z = a - _curve_sum(zip(support, y), det * da, model)
        to_add = [i for i, v in enumerate(_curve_nums(z, model)) if v < 0 and i not in support]
        if not to_add:
            break
        support.extend(to_add)
    zx = z._view[0]
    if any(v < 0 for v in y) or _pair(zx, zx, model) <= 0 or _pair(zx, model.kahler_ref._view[0], model) <= 0:
        return None
    pairs = tuple((i, Fraction(v * model._dc, det * da)) for i, v in zip(support, y) if v)
    return ZariskiDecomposition(positive=z, negative=pairs)


def _sign(u: Fraction, v: Fraction, d: Fraction) -> int:
    """Exact sign of u + v sqrt(d) for rationals u, v and d >= 0."""
    su = (u > 0) - (u < 0)
    sv = (v > 0) - (v < 0) if d else 0
    if su == sv or sv == 0:
        return su
    if su == 0:
        return sv
    gap = u * u - v * v * d
    return su if gap > 0 else (sv if gap < 0 else 0)


def _volume_root(alpha, beta, model, t0, quad):
    """First root t >= t0 of vol(alpha - t beta) = A + B t + C t^2, walked exactly.

    On a Zariski chamber with negative-part support S the Gram systems for
    alpha and beta give the positive part as an affine class P0 - t P1, so the
    equation is the exact quadratic (P0 - t P1)^2 = A + B t + C t^2 there.
    At t0 the support grows from nothing as in _try_zariski; then a chamber
    ends at the first wall P0.C / P1.C of a curve C outside S with P1.C > 0,
    where C joins S, and beta nef keeps every weight growing.  Returns the
    root as (r, s, d), meaning r + s sqrt(d), and the chamber's negative part
    as the pair (N_alpha, N_beta) with N(t) = N_alpha - t N_beta.
    """
    A, B, C = quad
    nums = [_curve_nums(alpha, model), _curve_nums(beta, model)]
    support, lo = [], t0
    while True:
        solved = _support_solve(support, nums, model._gram)
        if solved is None:
            raise ModelInconsistencyError(f"alpha - t beta is not big at t = {lo}")
        det, ys = solved
        n_alpha, n_beta = (_curve_sum(zip(support, y), det * c._view[1], model) for y, c in zip(ys, (alpha, beta)))
        p0, p1 = alpha - n_alpha, beta - n_beta
        # P0.C_j = u_j / (d0 e) and P1.C_j = v_j / (d1 e) with d0, d1, e > 0
        u, v, d0, d1 = _curve_nums(p0, model), _curve_nums(p1, model), p0._view[1], p1._view[1]
        outside = [j for j in range(len(model.curves)) if j not in support]
        grow = [j for j in outside if u[j] * d1 * lo.denominator < lo.numerator * v[j] * d0]
        if grow:
            support += grow
            continue
        # (P0 - t P1)^2 - (A + B t + C t^2) = a t^2 + b t + c
        a = intersect(p1, p1, model) - C
        b = -2 * intersect(p0, p1, model) - B
        c = intersect(p0, p0, model) - A
        q_lo = a * lo * lo + b * lo + c
        if q_lo < 0:
            raise ModelInconsistencyError(f"vol(alpha - {lo} beta) lies below the volume equation")
        if q_lo == 0:
            return (lo, Fraction(0), Fraction(0)), (n_alpha, n_beta)
        walls = {}
        for j in outside:
            if v[j] > 0:
                walls.setdefault(Fraction(u[j] * d1, v[j] * d0), []).append(j)
        hi = min(walls, default=None)
        # q(lo) > 0, so the first crossing after lo is (-b - sqrt(b^2 - 4ac)) / 2a
        if a:
            disc = b * b - 4 * a * c
            root = (-b / (2 * a), -1 / (2 * a), disc) if disc >= 0 else None
        else:
            root = (-c / b, Fraction(0), Fraction(0)) if b else None
        if root is not None:
            r, s, d = root
            if _sign(r - lo, s, d) > 0 and (hi is None or _sign(r - hi, s, d) <= 0):
                return root, (n_alpha, n_beta)
        if hi is None:
            raise ModelInconsistencyError("the volume equation has no root on this model")
        support += walls[hi]
        lo = hi


def zariski(a: DivisorClass, model: SurfaceModel) -> ZariskiDecomposition:
    """Zariski decomposition of a big class; raises NotBigError otherwise."""
    dec = _try_zariski(a, model)
    if dec is None:
        raise NotBigError(f"class {a} is not big on this model")
    return dec


def volume(a: DivisorClass, model: SurfaceModel) -> Fraction:
    """vol(a) = Z^2 when a is big, 0 otherwise.  Total and exact."""
    dec = _try_zariski(a, model)
    if dec is None:
        return Fraction(0)
    return intersect(dec.positive, dec.positive, model)


def _parse_rows(text: str, key: str) -> list[list[Fraction]]:
    try:
        return [[Fraction(tok.strip()) for tok in chunk.split(",")] for chunk in text.split(";") if chunk.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"surface config field {key!r}: {exc}") from exc


def _read_ini(text: str, head: str) -> dict[str, dict[str, str]]:
    """Sections of INI text by lowercased name, keys lowercased, values raw.

    Lines before the first section header belong to section ``head``; ``#``
    starts a comment and the last duplicate key wins.
    """
    import configparser

    parser = configparser.ConfigParser(
        interpolation=None,
        strict=False,
        delimiters=("=",),
        comment_prefixes=("#",),
        inline_comment_prefixes=("#",),
    )
    try:
        parser.read_string(f"[{head}]\n{text}")
    except configparser.Error as exc:
        raise InputError(f"malformed config: {exc}") from exc
    return {name.lower(): dict(parser[name]) for name in parser.sections()}


def load_surface_model(source: str) -> SurfaceModel:
    """Load a SurfaceModel from a flat sectioned config file or literal text.

    Format::

        [surface]
        basis = H, -E
        form = 1, 0; 0, -1
        curves = 0, -1; 1, 1; 1, 0
        kahler = 3, 1

    Rows are semicolon separated, entries are comma-separated rationals
    (``-0.3`` and ``1/3`` both work).  ``source`` may be a path or the text
    itself.
    """
    text = source
    if os.path.exists(source):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    entries = _read_ini(text, "surface")["surface"]
    try:
        basis = tuple(tok.strip() for tok in entries["basis"].split(","))
        form, curves, kahler = (_parse_rows(entries[key], key) for key in ("form", "curves", "kahler"))
    except KeyError as exc:
        raise InputError(f"surface config missing field {exc}") from exc
    if len(kahler) != 1:
        raise InputError(f"surface config field 'kahler' needs one row, not {len(kahler)}")
    curves, kahler = tuple(DivisorClass(tuple(r)) for r in curves), DivisorClass(tuple(kahler[0]))
    return SurfaceModel(basis_labels=basis, form=tuple(map(tuple, form)), curves=curves, kahler_ref=kahler)

"""Exact intersection arithmetic and Zariski decomposition on Kahler surfaces.

A surface is described by a finite divisor basis, the symmetric intersection
form on that basis, a finite list of irreducible curve classes generating the
effective cone, and a designated Kahler reference class.  Arithmetic is exact
on integers: each class has an integer view (numerators over one positive
denominator), and the model clears its form, its curves' images under the
form and their Gram matrix to integers once, so a pairing is an integer
numerator over a known denominator and a sign test makes no Fraction.
Volumes of big classes are Z^2 through the support-growing decomposition,
each Gram system solved by one fraction-free elimination that tests
definiteness too.  That one Zariski loop runs on an integer view and
returns the positive part as an integer vector; `zariski` and `volume` wrap
it, and the certificates read Z^2 as an integer numerator over a positive
denominator.  The chamber walk along a ray alpha - t beta runs on the same
integers and returns its root as (a + b sqrt(n)) / e.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

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

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return _minus(self, other, -1, 1)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return _minus(self, other, 1, 1)

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


def _minus(a: DivisorClass, b: DivisorClass, tn: int, td: int) -> DivisorClass:
    """The class a - (tn / td) b for integers tn and td > 0, as one view."""
    (x, dx), (y, dy) = a._view, b._view
    return _from_view([u * dy * td - tn * v * dx for u, v in zip(x, y, strict=True)], dx * dy * td)


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
        # the form's nonzero entries (i, j, v) over d_form, the curves' rows R_i
        # over d_c, their images G R_i under the form over d_c d_form and their
        # Gram matrix over d_c^2 d_form, all integers
        d = self._dform = math.lcm(*(v.denominator for row in self.form for v in row))
        form = [[v.numerator * (d // v.denominator) for v in row] for row in self.form]
        self._entries = tuple((i, j, v) for i, row in enumerate(form) for j, v in enumerate(row) if v)
        d = self._dc = math.lcm(*(c._view[1] for c in self.curves))
        self._rows = tuple(tuple(v * (d // c._view[1]) for v in c._view[0]) for c in self.curves)
        self._images = tuple(tuple(sum(map(mul, row, r)) for row in form) for r in self._rows)
        self._gram = tuple(tuple(sum(map(mul, r, g)) for r in self._rows) for g in self._images)
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
        if not all(v > 0 for v in _curve_nums(x, self)):
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


def _curve_nums(x, model: SurfaceModel) -> list[int]:
    """Numerators of a.C over the curve list for the integer view x / d_a of a,
    all over d_a d_c d_form."""
    return [sum(map(mul, x, g)) for g in model._images]


def intersect(a: DivisorClass, b: DivisorClass, model: SurfaceModel) -> Fraction:
    """Exact bilinear pairing a . b through the model's intersection form."""
    (x, dx), (y, dy) = _view_of(a, model), _view_of(b, model)
    return Fraction(_pair(x, y, model), dx * dy * model._dform)


def is_nef(a: DivisorClass, model: SurfaceModel) -> bool:
    return all(v >= 0 for v in _curve_nums(_view_of(a, model)[0], model))


def is_kahler(a: DivisorClass, model: SurfaceModel) -> bool:
    """Numerical Kahler test: positive on every curve and positive square."""
    x = _view_of(a, model)[0]
    return all(v > 0 for v in _curve_nums(x, model)) and _pair(x, x, model) > 0


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


def _curve_vec(support: list[int], y: list[int], model: SurfaceModel) -> list[int]:
    """The integer vector sum of y_i R_i over the support, R_i the curves' integer rows."""
    acc = [0] * model.rank
    for i, w in zip(support, y):
        acc = [s + w * c for s, c in zip(acc, model._rows[i])]
    return acc


def _zariski_view(x, model: SurfaceModel):
    """Support growth on the numerators x of a class a = x / d, d > 0; None
    when the result certifies a is not big.

    Start from the curves a pairs negatively with, solve the orthogonality
    system on their span, and enlarge the support while the candidate nef part
    still pairs negatively with some curve.  The loop terminates because the
    curve list is finite and the support only grows.  Returns (support, y, det,
    z): the negative part is sum y_i R_i / (det d), so curve i has the weight
    y_i d_c / (det d), and the positive part is the integer vector z over det d.
    """
    nums = _curve_nums(x, model)
    support = [i for i, v in enumerate(nums) if v < 0]
    while True:
        solved = _support_solve(support, [nums], model._gram)
        if solved is None:
            return None
        det, (y,) = solved
        z = [det * u - v for u, v in zip(x, _curve_vec(support, y, model))]
        to_add = [i for i, v in enumerate(_curve_nums(z, model)) if v < 0 and i not in support]
        if not to_add:
            break
        support.extend(to_add)
    if any(v < 0 for v in y) or _pair(z, z, model) <= 0 or _pair(z, model.kahler_ref._view[0], model) <= 0:
        return None
    return support, y, det, z


def _volume_pair(x, d: int, model: SurfaceModel) -> tuple[int, int]:
    """vol(x / d) for an integer view with d > 0, as a numerator over a positive
    denominator: Z^2 when the class is big, 0 otherwise."""
    dec = _zariski_view(x, model)
    if dec is None:
        return 0, 1
    _, _, det, z = dec
    return _pair(z, z, model), det * det * d * d * model._dform


def _sign(u, v, d) -> int:
    """Exact sign of u + v sqrt(d) for integers or rationals u, v and d >= 0."""
    su = (u > 0) - (u < 0)
    sv = (v > 0) - (v < 0) if d else 0
    if su == sv or sv == 0:
        return su
    if su == 0:
        return sv
    gap = u * u - v * v * d
    return su if gap > 0 else (sv if gap < 0 else 0)


def _volume_root(alpha, beta, model, t0, quad):
    """First root t >= t0 of vol(alpha - t beta) = (A + B t + C t^2) / L, walked exactly.

    t0 = (tn, td) means tn / td, and quad = (A, B, C, L), all integers with
    td, L > 0.  On a Zariski chamber with negative-part support S the Gram
    systems for alpha and beta give the positive part as an affine class
    P0 - t P1, so the equation is the exact quadratic (P0 - t P1)^2 =
    (A + B t + C t^2) / L there, cleared to integers.  At t0 the support grows
    from nothing as in _zariski_view; then a chamber ends at the first wall
    P0.C / P1.C of a curve C outside S with P1.C > 0, where C joins S, and
    beta nef keeps every weight growing.  The chamber's start and walls are
    integer pairs, compared by cross-multiplication.  Returns the root as
    integers (a, b, n, e) with e > 0, meaning (a + b sqrt(n)) / e, and the
    chamber's negative part as the pair (N_alpha, N_beta) with
    N(t) = N_alpha - t N_beta.
    """
    A, B, C, L = quad
    (xa, da), (xb, db) = alpha._view, beta._view
    nums = [_curve_nums(xa, model), _curve_nums(xb, model)]
    support, (ln, ld) = [], t0
    while True:
        solved = _support_solve(support, nums, model._gram)
        if solved is None:
            raise ModelInconsistencyError(f"alpha - t beta is not big at t = {Fraction(ln, ld)}")
        det, ys = solved
        # N_alpha = na / d0, N_beta = nb / d1, P0 = x0 / d0 and P1 = x1 / d1
        # over d0 = det d_alpha and d1 = det d_beta
        na, nb = (_curve_vec(support, y, model) for y in ys)
        d0, d1 = det * da, det * db
        x0 = [det * w - v for w, v in zip(xa, na)]
        x1 = [det * w - v for w, v in zip(xb, nb)]
        # P0.C_j = u_j / (d0 e) and P1.C_j = v_j / (d1 e) with e > 0
        u, v = _curve_nums(x0, model), _curve_nums(x1, model)
        outside = [j for j in range(len(model.curves)) if j not in support]
        grow = [j for j in outside if u[j] * d1 * ld < ln * v[j] * d0]
        if grow:
            support += grow
            continue
        # K ((P0 - t P1)^2 - (A + B t + C t^2) / L) = a t^2 + b t + c for K = L k > 0
        k = d0 * d0 * d1 * d1 * model._dform
        a = L * d0 * d0 * _pair(x1, x1, model) - k * C
        b = -2 * L * d0 * d1 * _pair(x0, x1, model) - k * B
        c = L * d1 * d1 * _pair(x0, x0, model) - k * A
        q_lo = (a * ln + b * ld) * ln + c * ld * ld
        if q_lo < 0:
            raise ModelInconsistencyError(f"vol(alpha - {Fraction(ln, ld)} beta) lies below the volume equation")
        if q_lo == 0:
            return (ln, 0, 0, ld), (_from_view(na, d0), _from_view(nb, d1))
        # the first wall (hn, hd) and the curves on it
        hi, at = None, []
        for j in outside:
            if v[j] > 0:
                wn, wd = u[j] * d1, v[j] * d0
                if hi is None or wn * hi[1] < hi[0] * wd:
                    hi, at = (wn, wd), [j]
                elif wn * hi[1] == hi[0] * wd:
                    at.append(j)
        # q(lo) > 0, so the first crossing after lo is (-b - sqrt(b^2 - 4ac)) / 2a
        if a:
            disc = b * b - 4 * a * c
            root = ((-b, -1, disc, 2 * a) if a > 0 else (b, 1, disc, -2 * a)) if disc >= 0 else None
        else:
            root = ((-c, 0, 0, b) if b > 0 else (c, 0, 0, -b)) if b else None
        if root is not None:
            ra, rb, rn, re = root
            if _sign(ra * ld - re * ln, rb * ld, rn) > 0 and (
                hi is None or _sign(ra * hi[1] - re * hi[0], rb * hi[1], rn) <= 0
            ):
                return root, (_from_view(na, d0), _from_view(nb, d1))
        if hi is None:
            raise ModelInconsistencyError("the volume equation has no root on this model")
        support += at
        ln, ld = hi


def zariski(a: DivisorClass, model: SurfaceModel) -> ZariskiDecomposition:
    """Zariski decomposition of a big class; raises NotBigError otherwise."""
    x, da = _view_of(a, model)
    dec = _zariski_view(x, model)
    if dec is None:
        raise NotBigError(f"class {a} is not big on this model")
    support, y, det, z = dec
    den = det * da
    negative = tuple((i, Fraction(v * model._dc, den)) for i, v in zip(support, y) if v)
    return ZariskiDecomposition(positive=_from_view(z, den), negative=negative)


def volume(a: DivisorClass, model: SurfaceModel) -> Fraction:
    """vol(a) = Z^2 when a is big, 0 otherwise.  Total and exact."""
    return Fraction(*_volume_pair(*_view_of(a, model), model))


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

"""Exact intersection arithmetic and Zariski decomposition on Kahler surfaces.

A surface is described by a finite divisor basis, the symmetric intersection
form on that basis, a finite list of irreducible curve classes generating the
effective cone, and a designated Kahler reference class.  All arithmetic is
carried out in exact rational numbers; volumes of big classes are computed as
Z^2 through the iterative support-growing decomposition.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

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
    """A (1,1) class given by rational coefficients over the model basis."""

    coeffs: tuple[Fraction, ...]

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
        return DivisorClass(tuple(a + b for a, b in zip(self.coeffs, other.coeffs, strict=True)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(tuple(a - b for a, b in zip(self.coeffs, other.coeffs, strict=True)))

    def __mul__(self, t) -> "DivisorClass":
        t = to_fraction(t)
        return DivisorClass(tuple(t * a for a in self.coeffs))

    __rmul__ = __mul__

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple(-a for a in self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def as_floats(self) -> list[float]:
        return [float(c) for c in self.coeffs]

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coeffs)


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
        # the nonzero entries (i, j, v) of the form, all that intersect() reads
        self._entries = tuple((i, j, v) for i, row in enumerate(self.form) for j, v in enumerate(row) if v)
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
        # Hodge index: exactly one positive eigenvalue, none zero.
        eigs = np.linalg.eigvalsh(np.array(self.form, dtype=float))
        pos = int(np.sum(eigs > 1e-12))
        zero = int(np.sum(np.abs(eigs) <= 1e-12))
        if pos != 1 or zero != 0:
            raise ModelInconsistencyError(
                f"intersection form must have signature (1,{k - 1}); eigenvalues {eigs}"
            )
        if intersect(self.kahler_ref, self.kahler_ref, self) <= 0:
            raise ModelInconsistencyError("kahler_ref has non-positive self-intersection")
        for c in self.curves:
            if intersect(self.kahler_ref, c, self) <= 0:
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
        return _curve_sum(self.negative, model)

    def reconstruct(self, model: SurfaceModel) -> DivisorClass:
        return self.positive + self.negative_class(model)


def intersect(a: DivisorClass, b: DivisorClass, model: SurfaceModel) -> Fraction:
    """Exact bilinear pairing a . b through the model's intersection form."""
    if len(a.coeffs) != model.rank or len(b.coeffs) != model.rank:
        raise InputError("divisor coefficient length does not match the model basis")
    x, y = a.coeffs, b.coeffs
    return sum((v * x[i] * y[j] for i, j, v in model._entries if x[i] and y[j]), Fraction(0))


def is_nef(a: DivisorClass, model: SurfaceModel) -> bool:
    return all(intersect(a, c, model) >= 0 for c in model.curves)


def is_kahler(a: DivisorClass, model: SurfaceModel) -> bool:
    """Numerical Kahler test: positive on every curve and positive square."""
    return (
        all(intersect(a, c, model) > 0 for c in model.curves)
        and intersect(a, a, model) > 0
    )


def _solve_rational(gram: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Gaussian elimination over Fraction; None if the matrix is singular."""
    k = len(rhs)
    aug = [list(gram[i]) + [rhs[i]] for i in range(k)]
    for col in range(k):
        piv = next((r for r in range(col, k) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [aug[i][k] for i in range(k)]


def _is_negative_definite(gram: list[list[Fraction]]) -> bool:
    """Sign-alternating leading principal minors, computed exactly."""
    k = len(gram)
    for size in range(1, k + 1):
        sub = [row[:size] for row in gram[:size]]
        det = _det_rational(sub)
        if det == 0 or (det > 0) != (size % 2 == 0):
            return False
    return True


def _det_rational(mat: list[list[Fraction]]) -> Fraction:
    k = len(mat)
    mat = [list(row) for row in mat]
    det = Fraction(1)
    for col in range(k):
        piv = next((r for r in range(col, k) if mat[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, k):
            if mat[r][col] != 0:
                f = mat[r][col] * inv
                mat[r] = [v - f * w for v, w in zip(mat[r], mat[col])]
    return det


def _curve_sum(pairs: Iterable[tuple[int, Fraction]], model: SurfaceModel) -> DivisorClass:
    """The class sum of w C_i over (i, w) pairs of curve indices and weights."""
    acc = DivisorClass(tuple(Fraction(0) for _ in range(model.rank)))
    for idx, w in pairs:
        acc = acc + w * model.curves[idx]
    return acc


def _try_zariski(a: DivisorClass, model: SurfaceModel) -> ZariskiDecomposition | None:
    """Iterative support growth; None when the result certifies a is not big.

    Start from the curves a pairs negatively with, solve the orthogonality
    system on their span, and enlarge the support while the candidate nef part
    still pairs negatively with some curve.  The loop terminates because the
    curve list is finite and the support only grows.
    """
    support: list[int] = [i for i, c in enumerate(model.curves) if intersect(a, c, model) < 0]
    while True:
        gram = [[intersect(model.curves[i], model.curves[j], model) for j in support] for i in support]
        if not _is_negative_definite(gram):
            return None
        weights = _solve_rational(gram, [intersect(a, model.curves[i], model) for i in support])
        z = a - _curve_sum(zip(support, weights), model)
        to_add = [
            i
            for i, c in enumerate(model.curves)
            if i not in support and intersect(z, c, model) < 0
        ]
        if not to_add:
            break
        support.extend(to_add)
    if any(w < 0 for w in weights):
        return None
    z_sq = intersect(z, z, model)
    if z_sq <= 0 or intersect(z, model.kahler_ref, model) <= 0:
        return None
    pairs = tuple((i, w) for i, w in zip(support, weights) if w != 0)
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
    curves = model.curves
    support: list[int] = []
    lo = t0
    while True:
        gram = [[intersect(curves[i], curves[j], model) for j in support] for i in support]
        if not _is_negative_definite(gram):
            raise ModelInconsistencyError(f"alpha - t beta is not big at t = {lo}")
        rhs = [[intersect(cls, curves[i], model) for i in support] for cls in (alpha, beta)]
        n_alpha, n_beta = (_curve_sum(zip(support, _solve_rational(gram, v)), model) for v in rhs)
        p0, p1 = alpha - n_alpha, beta - n_beta
        outside = [j for j in range(len(curves)) if j not in support]
        pairings = {j: (intersect(p0, curves[j], model), intersect(p1, curves[j], model)) for j in outside}
        grow = [j for j, (u, v) in pairings.items() if u - lo * v < 0]
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
        for j, (u, v) in pairings.items():
            if v > 0:
                walls.setdefault(u / v, []).append(j)
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


def _parse_rows(text: str) -> list[list[Fraction]]:
    rows = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if chunk:
            rows.append([Fraction(tok.strip()) for tok in chunk.split(",")])
    return rows


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
        form = tuple(tuple(r) for r in _parse_rows(entries["form"]))
        curves = tuple(DivisorClass(tuple(r)) for r in _parse_rows(entries["curves"]))
        kahler = DivisorClass(tuple(_parse_rows(entries["kahler"])[0]))
    except KeyError as exc:
        raise InputError(f"surface config missing field {exc}") from exc
    return SurfaceModel(basis_labels=basis, form=form, curves=curves, kahler_ref=kahler)

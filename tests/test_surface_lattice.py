"""Exact intersection arithmetic, Zariski decomposition and volume."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopeflow.errors import InputError, ModelInconsistencyError, NotBigError
from slopeflow.surface_lattice import (
    DivisorClass,
    SurfaceModel,
    intersect,
    is_kahler,
    is_nef,
    load_surface_model,
    volume,
    zariski,
)
from slopeflow.surface_slopes import blowup_plane_model


def test_bilinear_evaluation(blp2):
    a = DivisorClass.of(2, "0.3")     # 2H - 0.3E
    b = DivisorClass.of(3, 1)         # 3H - E
    assert intersect(a, b, blp2) == F(57, 10)


def test_pairing_with_zero_class(blp2):
    z = DivisorClass.of(0, 0)
    a = DivisorClass.of(2, "-0.7")
    assert intersect(a, z, blp2) == 0


def test_basis_normalization(blp2):
    h = DivisorClass.of(1, 0)
    assert intersect(h, h, blp2) == 1


def test_dimension_mismatch_rejected(blp2):
    with pytest.raises(InputError):
        intersect(DivisorClass.of(1, 2, 3), DivisorClass.of(1, 0), blp2)


def test_zariski_nef_class_trivial(blp2):
    a = DivisorClass.of(2, "0.3")
    dec = zariski(a, blp2)
    assert dec.negative == ()
    assert dec.positive == a


def test_zariski_exceptional_excess(blp2):
    # 2H + 0.5E: negative part 0.5E, nef part 2H
    a = DivisorClass.of(2, "-0.5")
    dec = zariski(a, blp2)
    z = dec.positive
    assert z == DivisorClass.of(2, 0)
    assert intersect(z, blp2.curves[0], blp2) == 0
    assert intersect(z, z, blp2) == 4
    n = dec.negative_class(blp2)
    assert z + n == a


def test_zariski_at_witness_class(blp2):
    # rational approximant of 6 - 4 sqrt(2)
    s = F(343145750508, 10**12)
    a = DivisorClass((F(2) - 3 * s, -(s - F(3, 10))))  # (2-3s)H + (s-0.3)E
    dec = zariski(a, blp2)
    assert intersect(dec.positive, blp2.curves[0], blp2) == 0
    assert dec.positive == DivisorClass((F(2) - 3 * s, F(0)))
    assert dec.reconstruct(blp2) == a


def test_volume_paper_cases(blp2):
    assert volume(DivisorClass.of(3, 1), blp2) == 8      # x=3, y=1 -> x^2-y^2
    assert volume(DivisorClass.of(3, "-0.5"), blp2) == 9  # y <= 0 -> x^2
    assert volume(DivisorClass.of(-1, 0), blp2) == 0


def test_not_big_raises(blp2):
    with pytest.raises(NotBigError):
        zariski(DivisorClass.of(-1, 0), blp2)


def test_hodge_index_enforced():
    with pytest.raises(ModelInconsistencyError):
        SurfaceModel(
            basis_labels=("A", "B"),
            form=((F(1), F(0)), (F(0), F(1))),  # signature (2,0)
            curves=(),
            kahler_ref=DivisorClass((F(1), F(0))),
        )


def test_hodge_index_is_exact():
    """The signature test is exact: a form scaled to diag(1e-13, -1e-13) is
    still the one-point blow-up, while a degenerate form and one of
    signature (2,0) are rejected."""
    s = F(1, 10**13)
    small = SurfaceModel(
        basis_labels=("H", "-E"),
        form=((s, F(0)), (F(0), -s)),
        curves=(DivisorClass.of(0, -1), DivisorClass.of(1, 1), DivisorClass.of(1, 0)),
        kahler_ref=DivisorClass.of(3, 1),
    )
    assert volume(DivisorClass.of(3, 1), small) == F(8, 10**13)
    for form in (((1, 0), (0, 0)), ((1, 0), (0, 1)), ((2, 1), (1, 1))):
        with pytest.raises(ModelInconsistencyError, match="signature"):
            SurfaceModel(
                basis_labels=("A", "B"),
                form=tuple(tuple(F(v) for v in row) for row in form),
                curves=(),
                kahler_ref=DivisorClass.of(1, 0),
            )


def test_asymmetric_form_rejected():
    with pytest.raises(ModelInconsistencyError):
        SurfaceModel(
            basis_labels=("A", "B"),
            form=((F(1), F(1)), (F(0), F(-1))),
            curves=(),
            kahler_ref=DivisorClass((F(1), F(0))),
        )


def _random_big_classes(model, rng, count):
    """Random rational classes biased toward the big cone."""
    out = []
    k = model.rank
    while len(out) < count:
        num = rng.integers(-8, 17, size=k)
        cls = DivisorClass(tuple(F(int(n), 4) for n in num))
        if volume(cls, model) > 0:
            out.append(cls)
    return out


@pytest.mark.parametrize("model_name", ["blp2", "two_point"])
def test_zariski_invariants_random(model_name, request):
    model = request.getfixturevalue(model_name)
    rng = np.random.default_rng(20250810)
    for cls in _random_big_classes(model, rng, 120):
        dec = zariski(cls, model)
        # reconstruction is exact
        assert dec.reconstruct(model) == cls
        # nef against the curve list
        assert is_nef(dec.positive, model)
        # orthogonality on the support and nonnegative weights
        for idx, w in dec.negative:
            assert w >= 0
            assert intersect(dec.positive, model.curves[idx], model) == 0


def test_volume_monotone_under_effective_additions(two_point):
    rng = np.random.default_rng(7)
    for cls in _random_big_classes(two_point, rng, 40):
        bigger = cls
        for c in two_point.curves[:3]:
            bigger = bigger + F(1, 2) * c
        assert volume(bigger, two_point) >= volume(cls, two_point)


@given(
    t=st.fractions(min_value=F(1, 10), max_value=F(8)),
    x=st.integers(min_value=-6, max_value=12),
    y=st.integers(min_value=-6, max_value=12),
)
@settings(max_examples=60, deadline=None)
def test_volume_homogeneity(t, x, y):
    model = blowup_plane_model()
    cls = DivisorClass.of(x, y)
    assert volume(t * cls, model) == t * t * volume(cls, model)


def test_volume_continuity_sampled(blp2):
    a = DivisorClass.of(3, 1)
    beta = DivisorClass.of(2, 1)
    base = volume(a, blp2)
    diffs = []
    for k in range(1, 9):
        eps = F(1, 10**k)
        diffs.append(abs(volume(a + eps * beta, blp2) - base))
    assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))
    assert diffs[-1] < F(1, 10**6)


def test_lamari_sufficient_criterion(blp2):
    # gamma^2 > 0 and gamma . kahler_ref > 0 must imply positive volume
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 60:
        num = rng.integers(-10, 11, size=2)
        cls = DivisorClass(tuple(F(int(n), 3) for n in num))
        if intersect(cls, cls, blp2) > 0 and intersect(cls, blp2.kahler_ref, blp2) > 0:
            assert volume(cls, blp2) > 0
            checked += 1


def test_kahler_predicate(blp2):
    assert is_kahler(DivisorClass.of(2, "0.3"), blp2)
    assert not is_kahler(DivisorClass.of(1, 1), blp2)  # H - E is nef, not Kahler
    assert is_nef(DivisorClass.of(1, 1), blp2)


def test_config_roundtrip(tmp_path):
    text = """
[surface]
basis = H, -E
form = 1, 0; 0, -1
curves = 0, -1; 1, 1; 1, 0
kahler = 3, 1
"""
    path = tmp_path / "blp2.cfg"
    path.write_text(text)
    model = load_surface_model(str(path))
    assert model.basis_labels == ("H", "-E")
    assert volume(DivisorClass.of(3, 1), model) == 8
    # literal text also accepted
    model2 = load_surface_model(text)
    assert model2.form == model.form


def test_config_rejects_garbage():
    with pytest.raises(InputError):
        load_surface_model("[surface]\nbasis = H\nnonsense line\n")

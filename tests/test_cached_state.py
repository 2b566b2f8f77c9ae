"""Computed-once state: a ``_cache`` dict only where a grade or cutoff is the key.

An attribute derived once from a structure is a functools.cached_property,
so a second read returns the object the first one built.
"""

import dataclasses

import numpy as np
import pytest

from g2calc import (
    G2Data,
    HermitianPoint,
    LinearMap,
    Metric,
    NormalForm,
    SU3Point,
    normal_form,
    product_g2,
    standard_kahler,
    standard_su3,
)


def fresh(owner):
    """A new instance of the named structure, so that nothing is cached yet."""
    if owner == "su3":
        return SU3Point(standard_kahler(3), standard_su3().holo)
    s = np.eye(4) + 0.2 * np.random.default_rng(170).standard_normal((4, 4))
    if owner == "metric":
        return Metric(4, s.T @ s)
    j = LinearMap(4, np.linalg.solve(s, standard_kahler(2).j_map.matrix @ s))
    point = HermitianPoint(2, Metric(4, s.T @ s), j)
    return point if owner == "point" else normal_form(point, point.omega)


@pytest.mark.parametrize("owner, name", [
    ("metric", "sqrt_det"), ("metric", "gram_inv"),
    ("point", "omega"), ("point", "frame"), ("point", "_holomorphic_change"),
    ("normal", "coframe"), ("normal", "omega_nabla"), ("normal", "eta"),
    ("su3", "_bundle"),
])
def test_two_reads_return_the_same_object(owner, name):
    obj = fresh(owner)
    assert getattr(obj, name) is getattr(obj, name)


def test_product_g2_returns_the_cached_bundle():
    su3 = fresh("su3")
    assert product_g2(su3) is su3._bundle
    assert product_g2(su3) is product_g2(su3)


@pytest.mark.parametrize("cls, keyed", [
    (Metric, True), (LinearMap, True), (G2Data, True),
    (HermitianPoint, False), (NormalForm, False), (SU3Point, False),
])
def test_only_keyed_state_has_a_cache_field(cls, keyed):
    # Metric and LinearMap key theirs by grade, G2Data by cutoff.
    assert ("_cache" in {f.name for f in dataclasses.fields(cls)}) == keyed

import random
from fractions import Fraction

import pytest

from conormal.cellcx import (CellularMap, identity_map, simplicial_map, product,
                             product_map)
from conormal.qlinalg import Matrix, rref
from conormal.sheaf import constant
from conormal.lefschetz import (LefschetzInstance, LefschetzError,
                                global_trace, local_trace_sum, constant_phi,
                                _induced_endo)
from conormal.randgen import (hollow_triangle, tetra_boundary, circle,
                              random_lefschetz_instance)


def test_identity_on_circle():
    cx = hollow_triangle()
    inst = constant_phi(identity_map(cx), constant(cx))
    assert global_trace(inst) == 0  # 1 - 1 on H^0, H^1
    assert local_trace_sum(inst) == 0


def test_rotation_on_circle():
    cx = hollow_triangle()
    rot = simplicial_map(cx, cx, {"0": "1", "1": "2", "2": "0"})
    inst = constant_phi(rot, constant(cx))
    assert rot.fixed_cells() == []
    assert local_trace_sum(inst) == 0
    assert global_trace(inst) == 0


def test_reflection_on_circle():
    cx = hollow_triangle()
    refl = simplicial_map(cx, cx, {"0": "0", "1": "2", "2": "1"})
    inst = constant_phi(refl, constant(cx))
    # fixed: the vertex 0 (+1) and the edge 1.2 (sign -1, cell dim 1)
    assert local_trace_sum(inst) == 2
    assert global_trace(inst) == 2


def test_identity_on_sphere():
    cx = tetra_boundary()
    inst = constant_phi(identity_map(cx), constant(cx))
    assert global_trace(inst) == 2
    assert local_trace_sum(inst) == 2


def test_scalar_phi_scales_the_trace():
    cx = tetra_boundary()
    c = Fraction(3, 7)
    inst = constant_phi(identity_map(cx), constant(cx), c)
    assert global_trace(inst) == 2 * c


def test_validate_flags_incompatible_phi():
    cx = hollow_triangle()
    inst = constant_phi(identity_map(cx), constant(cx))
    bad_phi = dict(inst.phi)
    bad_phi["0"] = {0: Matrix.identity(1).scale(2)}
    bad = LefschetzInstance(inst.f, inst.sheaf, bad_phi)
    assert bad.validate() != []


def test_validate_flags_phi_that_breaks_naturality_under_a_reflection():
    """phi scaled by 2 at the vertex 1 is still a chain map at every cell,
    but no longer commutes with the restrictions of f^-1 F out of 1, where
    f swaps the vertices 1 and 2."""
    cx = hollow_triangle()
    refl = simplicial_map(cx, cx, {"0": "0", "1": "2", "2": "1"})
    inst = constant_phi(refl, constant(cx))
    assert inst.validate() == []
    bad_phi = dict(inst.phi)
    bad_phi["1"] = {0: Matrix.identity(1).scale(2)}
    problems = LefschetzInstance(refl, inst.sheaf, bad_phi).validate()
    assert sorted(problems) == ["morphism does not commute with restriction ('1', '0.1')",
                                "morphism does not commute with restriction ('1', '1.2')"]


def test_non_endomorphism_rejected():
    from conormal.cellcx import collapse_to_point
    cx = hollow_triangle()
    with pytest.raises(LefschetzError):
        LefschetzInstance(collapse_to_point(cx), constant(cx), {})


def test_random_instances():
    rng = random.Random(71)
    for _ in range(20):
        inst = random_lefschetz_instance(rng)
        assert inst.validate() == []
        assert global_trace(inst) == local_trace_sum(inst)


def test_global_trace_checks_the_chain_map_once(monkeypatch):
    import conormal.lefschetz as lf
    import conormal.qlinalg as ql
    calls = []
    real = ql.is_chain_map

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ql, "is_chain_map", counting)
    monkeypatch.setattr(lf, "is_chain_map", counting)
    cx = tetra_boundary()
    inst = constant_phi(identity_map(cx), constant(cx), 3)
    assert global_trace(inst) == 6
    assert len(calls) == 1
    # a phi family that is not a chain map is still rejected, by that check
    bad_phi = dict(inst.phi)
    bad_phi["0"] = {0: Matrix.identity(1).scale(2)}
    bad = LefschetzInstance(inst.f, inst.sheaf, bad_phi)
    with pytest.raises(LefschetzError,
                       match="^phi family does not induce a chain endomorphism$"):
        global_trace(bad)
    assert len(calls) == 2


def test_chain_map_check_rejects_what_validate_passes():
    """The identity of a circle with orientation sign -1 on one edge: phi
    is the identity on every stalk, so it is compatible with the
    restrictions, but the induced map of sections is not a chain map."""
    cx = hollow_triangle()
    f = CellularMap(cx, cx, {c: c for c in cx.cell_ids()},
                    {c: -1 if c == "0.1" else 1 for c in cx.cell_ids()})
    inst = constant_phi(f, constant(cx))
    assert inst.validate() == []
    with pytest.raises(LefschetzError,
                       match="^phi family does not induce a chain endomorphism$"):
        global_trace(inst)


def test_global_trace_builds_no_basis_and_solves_nothing(monkeypatch):
    """The cohomology route reads its traces off reduced bases from the
    fraction-free elimination: no kernel basis, no linear solve, no
    Gauss-Jordan rref and no assembled or sliced matrix."""
    import conormal.qlinalg as ql
    calls = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ql, "solve_unique", counted("solve_unique", ql.solve_unique))
    monkeypatch.setattr(ql, "kernel_basis", counted("kernel_basis", ql.kernel_basis))
    monkeypatch.setattr(ql, "rref", counted("rref", ql.rref))
    monkeypatch.setattr(Matrix, "assemble",
                        classmethod(counted("assemble", Matrix.assemble.__func__)))
    monkeypatch.setattr(Matrix, "submatrix", counted("submatrix", Matrix.submatrix))
    c = circle(4)
    refl = simplicial_map(c, c, {v: (-v) % 4 for v in range(4)})
    torus = product(c, c)[0]
    f = product_map(refl, refl, source=torus, target=torus)
    # L(reflection) = 2 on the circle, so 4 on the torus
    assert global_trace(constant_phi(f, constant(torus), 3)) == 12
    rng = random.Random(73)
    for _ in range(10):
        inst = random_lefschetz_instance(rng)
        assert global_trace(inst) == local_trace_sum(inst)
    assert calls == []
    # the wrappers are the names qlinalg calls
    one = Matrix.identity(1)
    ql.solve_unique(one, one)
    ql.kernel_basis(one)
    assert calls == ["solve_unique", "assemble", "rref", "submatrix",
                     "kernel_basis", "rref"]


def _rref_pivot_rows(m):
    """The Gauss-Jordan route to the trace's reduced bases: {pivot
    column: row} of each nonzero row of rref(m); empty for None."""
    if m is None:
        return {}
    r, pivots = rref(m)
    return dict(zip(pivots, r.data))


def test_cohomology_trace_agrees_with_the_rref_bases(monkeypatch):
    """_cohomology_trace reads its bases off the kept rows of the
    fraction-free elimination, which pivots at each row's highest column;
    read off the bases of rref, which pivots at each column's first row,
    it gives the same trace: the formula needs only rows that are 1 at
    their own pivot and 0 at the others.  On the reflection of the torus
    with a scalar phi and on 200 seeded instances."""
    import conormal.qlinalg as ql
    c = circle(4)
    refl = simplicial_map(c, c, {v: (-v) % 4 for v in range(4)})
    torus = product(c, c)[0]
    insts = [constant_phi(product_map(refl, refl, source=torus, target=torus),
                          constant(torus), 3)]
    rng = random.Random(43)
    insts += [random_lefschetz_instance(rng) for _ in range(200)]
    cases = [_induced_endo(inst) for inst in insts]
    assert sum(bool(vc.diffs) and bool(phi) for vc, phi in cases) > 150
    got = [ql._cohomology_trace(phi, vc) for vc, phi in cases]
    assert got[0] == 12
    monkeypatch.setattr(ql, "_pivot_rows", _rref_pivot_rows)
    assert [ql._cohomology_trace(phi, vc) for vc, phi in cases] == got

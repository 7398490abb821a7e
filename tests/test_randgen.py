import hashlib
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conormal import checks, randgen
from conormal.cellcx import product
from conormal.io import describe_complex, describe_sheaf, fmt_matrix
from conormal.qlinalg import Matrix, VectComplex, solve_unique, _add_multiple
from conormal.sheaf import CellularSheaf, constant
from generators import random_morphism

SRC = Path(__file__).resolve().parent.parent / "src"

# the instances of cases 0-39 of the pushforward suite of seed 1, as
# checks.case_pushforward draws them
_PUSHFORWARD_INSTANCES = """
import json
from conormal import checks, randgen
from conormal.io import describe_complex, describe_sheaf
out = []
for i in range(40):
    rng = checks._case_rng(1, "pushforward", i)
    cx = randgen.random_complex(rng, max_dim=2, max_vertices=6, max_cells=25)
    f = randgen.random_cellular_map(rng, cx)
    sheaf = randgen.random_sheaf(rng, f.source, max_pieces=2)
    out.append([describe_complex(f.source), describe_sheaf(sheaf)])
print(json.dumps(out))
"""


def _instances(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _PUSHFORWARD_INSTANCES], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_suite_instances_do_not_depend_on_hash_seed():
    assert _instances(1) == _instances(2)


def test_drawn_conjugations_keep_their_inverses_across_builds():
    """Conjugations drawn before an unrelated piece sheaf is built give the
    PieceSheaf built from them afterwards their own inverses: the blocks
    of a rebuild whose conjugations carry solved inverses."""
    cx = randgen.hollow_triangle()
    cells = cx.cell_ids()
    rng = random.Random(5)
    pieces = [(kind, upset, 0, {c: randgen._rand_nonzero(rng) for c in cells})
              for kind, upset in ((randgen.SKY, frozenset(cells)),
                                  (randgen.ACYC, frozenset(cx.up_closure(["0"]))))]
    slots = randgen.PieceSheaf(cx, pieces, {}).slots
    conj = {(c, n): randgen.random_invertible(rng, len(labels))
            for c, per_degree in slots.items() for n, labels in per_degree.items()}
    assert {a.rows for a in conj.values()} == {1, 2}
    randgen.random_piece_sheaf(rng, cx)
    drawn = randgen.PieceSheaf(cx, pieces, conj)
    solved = randgen.PieceSheaf(cx, pieces, {key: _solved(a) for key, a in conj.items()})
    assert describe_sheaf(drawn.sheaf) == describe_sheaf(solved.sheaf) == \
        describe_sheaf(_reference_sheaf(drawn))
    assert drawn.sheaf.validate() == []


def test_random_invertible_leaves_its_exact_inverse():
    rng = random.Random(8)
    for n in range(1, 9):
        for _ in range(5):
            a = randgen.random_invertible(rng, n)
            assert a.inverse == solve_unique(a, Matrix.identity(n))
            assert a * a.inverse == Matrix.identity(n)


def _solved(a):
    """a as a conjugation whose inverse is solved for."""
    return randgen.Invertible(a.data, solve_unique(a, Matrix.identity(a.rows)))


def _reference_invertible(rng, n):
    """random_invertible as the general loop draws it for every n, with
    the factors drawn as Fraction(rng.choice(numerators),
    rng.choice(denominators)): (A, A^-1)."""
    a = [{i: Fraction(1)} for i in range(n)]
    ops = []
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            f = Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 2]))
            a[i] = {k: x * f for k, x in a[i].items()}
        else:
            f = Fraction(rng.choice([-2, -1, -1, 1, 1, 2, 3]),
                         rng.choice([1, 1, 1, 2, 3]))
            _add_multiple(a[i], f, a[j])
        ops.append((i, j, f))
    inv = Matrix.identity(n)
    for i, j, f in reversed(ops):
        if i == j:
            inv.data[i] = {k: x / f for k, x in inv.data[i].items()}
        else:
            _add_multiple(inv.data[i], -f, inv.data[j])
    m = Matrix(n, n)
    m.data = [dict(sorted(row.items())) for row in a]
    return m, inv


def test_random_invertible_matches_the_general_loop_draw_for_draw():
    for n in range(1, 5):
        rng, ref = random.Random(100 + n), random.Random(100 + n)
        for _ in range(250):
            a = randgen.random_invertible(rng, n)
            want, want_inv = _reference_invertible(ref, n)
            assert a == want
            assert a.inverse == want_inv
            assert rng.getstate() == ref.getstate()
    rng, ref = random.Random(7), random.Random(7)
    for _ in range(200):
        assert randgen._rand_rational(rng) == Fraction(
            ref.choice([-2, -1, -1, 1, 1, 2, 3]), ref.choice([1, 1, 1, 2, 3]))
        assert randgen._rand_nonzero(rng) == Fraction(
            ref.choice([-2, -1, 1, 2, 3]), ref.choice([1, 2]))
    assert rng.getstate() == ref.getstate()


def test_unit_draw_table_holds_each_product_and_its_inverse():
    """_UNITS[i][j] is the 1x1 Invertible [[a b]], with inverse
    [[1 / (a b)]], for the nonzero factors a, b at positions i, j, one
    object per product, and _NONZERO_INDEX draws those positions in the
    shape of _NONZEROS."""
    flat = [x for row in randgen._NONZEROS for x in row]
    assert len(randgen._UNITS) == len(flat)
    for a, row in zip(flat, randgen._UNITS):
        assert len(row) == len(flat)
        for b, u in zip(flat, row):
            assert isinstance(u, randgen.Invertible) and u.rows == u.cols == 1
            assert u[0, 0] == a * b and u[0, 0] * u.inverse[0, 0] == 1
    units = [u for row in randgen._UNITS for u in row]
    assert len({id(u) for u in units}) == len({u[0, 0] for u in units})
    assert [[flat[k] for k in row] for row in randgen._NONZERO_INDEX] == \
        [list(row) for row in randgen._NONZEROS]


def test_unconjugated_piece_sheaf_shares_one_block_per_value():
    """On circle(8)^2, with a sky piece on every cell and an acyclic piece
    on an up-set in other degrees (so every slot holds one label), equal
    1x1 restrictions and differentials are one Matrix object."""
    rng = random.Random(5)
    cx = product(randgen.circle(8), randgen.circle(8))[0]
    cells = cx.cell_ids()
    pieces = [(kind, upset, deg, {c: randgen._rand_nonzero(rng) for c in cells})
              for kind, upset, deg in ((randgen.SKY, frozenset(cells), 0),
                                       (randgen.ACYC, randgen.random_upset(rng, cx), 1))]
    sheaf = randgen.PieceSheaf(cx, pieces, {}).sheaf
    blocks = [m for phi in sheaf.restrictions.values() for m in phi.values()]
    diffs = [m for v in sheaf.stalks.values() for m in v.diffs.values()]
    assert diffs and all(m.rows == m.cols == 1 for m in blocks + diffs)
    blocks += diffs
    objects = {id(m) for m in blocks}
    values = {m[0, 0] for m in blocks}
    assert len(objects) <= len(values) < len(blocks)
    assert sheaf.validate() == []


def test_piece_sheaf_rejects_a_conjugation_that_is_not_an_invertible_of_its_slot():
    """A plain Matrix, an Invertible of another size, or a conjugation of a
    slot the pieces do not make is a ValueError naming the (cell, degree)
    slot, not an AttributeError inside the build or a block read from a
    corner of the matrix."""
    cx = randgen.full_simplex(3)
    cells = cx.cell_ids()
    pieces = [(randgen.SKY, frozenset(cells), 0, dict.fromkeys(cells, Fraction(1)))]
    rng = random.Random(4)
    for slot, a, got in [(("0", 0), Matrix.identity(1), "1x1 Matrix"),
                         (("0.1", 0), randgen.random_invertible(rng, 2), "2x2 Invertible"),
                         (("0", 1), randgen.random_invertible(rng, 1), "1x1 Invertible"),
                         (("0", 0), "[[1]]", "str")]:
        conj = {(c, 0): randgen.random_invertible(rng, 1) for c in cells}
        conj[slot] = a
        with pytest.raises(ValueError, match=r"slot %s .* got a %s$" % (
                re.escape(repr(slot)), got)):
            randgen.PieceSheaf(cx, pieces, conj)
    conj = {(c, 0): randgen.random_invertible(rng, 1) for c in cells}
    assert randgen.PieceSheaf(cx, pieces, conj).sheaf.validate() == []


def test_sheaves_share_restriction_dicts_pair_keys_and_unit_draws():
    """Counts, not bytes: the constant sheaf holds one restriction dict; a
    conjugated one-piece sky sheaf on circle(8)^2 holds no more dicts than
    distinct (degree, value) pairs; every restriction key of either is a
    tuple of base.face_pairs(); two equal 1x1 draws are one object."""
    cx = product(randgen.circle(8), randgen.circle(8))[0]
    cells = cx.cell_ids()
    rng = random.Random(12)
    pieces = [(randgen.SKY, frozenset(cells), 1,
               {c: randgen._rand_nonzero(rng) for c in cells})]
    conj = {(c, 1): randgen.random_invertible(rng, 1) for c in cells if rng.random() < 0.7}
    sky = randgen.PieceSheaf(cx, pieces, conj).sheaf
    const = constant(cx)
    assert len({id(phi) for phi in const.restrictions.values()}) == 1
    dicts = {id(phi) for phi in sky.restrictions.values()}
    values = {(n, m[0, 0]) for phi in sky.restrictions.values() for n, m in phi.items()}
    assert 1 < len(dicts) <= len(values) < len(sky.restrictions)
    pairs = {id(pair) for pair in cx.face_pairs()}
    for f in (sky, const):
        assert len(f.restrictions) == len(pairs)
        assert all(id(pair) in pairs for pair in f.restrictions)
    assert sky.validate() == []
    draws = [randgen.random_invertible(random.Random(k), 1) for k in range(40)]
    assert draws[3] is randgen.random_invertible(random.Random(3), 1)
    assert len({id(a) for a in draws}) == len({a[0, 0] for a in draws}) < len(draws)


def _reference_sheaf(ps):
    """ps.sheaf rebuilt block by block as A_t M A_s^-1 with Matrix
    products, M the unconjugated block and A^-1 solved for."""
    def conj(key, n):
        a = ps.conj.get(key)
        return (Matrix.identity(n), Matrix.identity(n)) if a is None else (
            a, solve_unique(a, Matrix.identity(n)))

    def block(t_key, s_key, m):
        return conj(t_key, m.rows)[0] * m * conj(s_key, m.cols)[1]
    stalks = {}
    for c, slots in ps.slots.items():
        dims = {n: len(labels) for n, labels in slots.items()}
        diffs = {}
        for n, labels in slots.items():
            if n + 1 in slots:
                m = Matrix.zeros(dims[n + 1], dims[n])
                for k, (i, leg) in enumerate(labels):
                    if leg == 0 and ps.pieces[i][0] == randgen.ACYC:
                        m[slots[n + 1].index((i, 1)), k] = 1
                if not m.is_zero():
                    diffs[n] = block((c, n + 1), (c, n), m)
        stalks[c] = VectComplex(dims, diffs)
    restrictions = {}
    for (t, s) in ps.base.incidence_pairs():
        if s not in stalks or t not in stalks:
            continue
        phi = {}
        for n, labels in ps.slots[s].items():
            labels_t = ps.slots[t].get(n, [])
            m = Matrix.zeros(len(labels_t), len(labels))
            for k, lab in enumerate(labels):
                if lab in labels_t:
                    w = ps.pieces[lab[0]][3]
                    m[labels_t.index(lab), k] = w[t] / w[s]
            if labels_t and not m.is_zero():
                phi[n] = block((t, n), (s, n), m)
        if phi:
            restrictions[(s, t)] = phi
    return CellularSheaf(ps.base, stalks, restrictions)


def test_piece_sheaf_blocks_match_the_conjugation_formula():
    """Every block, 1x1 or larger, equals A_t M A_s^-1: on seeded sheaves
    with sky and acyclic pieces, conjugated and unconjugated slots, and
    again with every one-label slot conjugated by a matrix from outside
    random_invertible, with its inverse solved for."""
    rng = random.Random(21)
    seen = {"1x1 d": 0, "bare 1x1": 0, "1x1": 0, "2x2": 0}
    for _ in range(25):
        cx = randgen.random_complex(rng, max_dim=2, max_vertices=6, max_cells=25)
        ps = randgen.random_piece_sheaf(rng, cx)
        for c, slots in ps.slots.items():
            for n, labels in slots.items():
                if len(labels) == 1:
                    seen["1x1" if (c, n) in ps.conj else "bare 1x1"] += 1
                    i, leg = labels[0]
                    if (leg == 0 and ps.pieces[i][0] == randgen.ACYC
                            and len(slots.get(n + 1, ())) == 1):
                        seen["1x1 d"] += 1
                elif len(labels) == 2 and (c, n) in ps.conj:
                    seen["2x2"] += 1
        assert describe_sheaf(ps.sheaf) == describe_sheaf(_reference_sheaf(ps))
        foreign = dict(ps.conj)
        for c, slots in ps.slots.items():
            for n, labels in slots.items():
                if len(labels) == 1:
                    foreign[(c, n)] = _solved(Matrix(1, 1, [[Fraction(-3, 2)]]))
        other = randgen.PieceSheaf(cx, ps.pieces, foreign)
        assert describe_sheaf(other.sheaf) == describe_sheaf(_reference_sheaf(other))
    assert min(seen.values()) > 0, seen


def test_integer_blocks_match_the_conjugation_formula_at_their_corners():
    """Seeded builds equal _reference_sheaf block by block where the 1x1
    blocks computed in ints have corners: negative weights and
    conjugations, unconjugated slots and conj={}, 1x1 conjugations from
    outside random_invertible (with solved inverses), 1x1 acyclic
    differentials, and two cells in the same pieces with different
    conjugations; and the benchmark's shape, a whole sky and a whole
    acyclic piece on circle(4)^2 with every slot conjugated, so that every
    cell is in one pattern, in apart and in overlapping degrees."""
    rng = random.Random(31)
    values = [Fraction(v) for v in (-3, -2, -1, 1, 2)] + [
        Fraction(-1, 2), Fraction(2, 3), Fraction(-5, 3)]
    seen = dict.fromkeys(("negative weight", "negative conj", "bare slot", "conj={}",
                          "plain 1x1", "1x1 d", "same pieces, other conj"), 0)

    def weights(cells):
        return {c: rng.choice(values) for c in cells}

    def matches_reference(ps):
        ref = _reference_sheaf(ps)
        assert ps.sheaf.stalks == ref.stalks
        assert ps.sheaf.restrictions == ref.restrictions
        # one shared Matrix per value of a 1x1 block
        blocks = [m for phi in ps.sheaf.restrictions.values() for m in phi.values()]
        blocks += [m for v in ps.sheaf.stalks.values() for m in v.diffs.values()]
        ones = [m for m in blocks if m.rows == m.cols == 1]
        assert len({id(m) for m in ones}) == len({m[0, 0] for m in ones})
        return {(m.rows, m.cols) for m in blocks}

    for _ in range(8):
        cx = rng.choice([product(randgen.hollow_triangle(), randgen.interval())[0],
                         randgen.random_complex(rng, max_dim=2, max_vertices=5,
                                                max_cells=20)])
        cells = cx.cell_ids()
        star = frozenset(cx.star(rng.choice(cx.cells_of_dim(0))))
        pieces = [(randgen.SKY, frozenset(cells), 0, weights(cells)),
                  (randgen.ACYC, star, 1, weights(cells)),
                  (randgen.SKY, randgen.random_upset(rng, cx), rng.choice((0, 2)),
                   weights(cells))]
        slots = randgen.PieceSheaf(cx, pieces, {}).slots
        for kind in ("conj={}", "drawn", "plain 1x1"):
            conj = {}
            for c, per_degree in slots.items():
                for n, labels in per_degree.items():
                    if kind == "conj={}" or rng.random() < 0.3:
                        continue
                    if kind == "plain 1x1" and len(labels) == 1:
                        conj[(c, n)] = _solved(Matrix(1, 1, [[rng.choice(values)]]))
                    else:
                        conj[(c, n)] = randgen.random_invertible(rng, len(labels))
            ps = randgen.PieceSheaf(cx, pieces, conj)
            matches_reference(ps)
            seen["conj={}"] += not conj
            for c, per_degree in slots.items():
                for n, labels in per_degree.items():
                    if len(labels) != 1:
                        continue
                    a = conj.get((c, n))
                    seen["negative weight"] += pieces[labels[0][0]][3][c] < 0
                    seen["bare slot"] += a is None and bool(conj)
                    seen["negative conj"] += a is not None and a[0, 0] < 0
                    seen["plain 1x1"] += a is not None and kind == "plain 1x1"
                seen["1x1 d"] += any(m.rows == m.cols == 1
                                     for m in ps.sheaf.stalk(c).diffs.values())
            for t, s in cx.incidence_pairs():
                if s in slots and slots[s] is slots.get(t):
                    seen["same pieces, other conj"] += any(
                        len(labels) == 1 and conj.get((s, n)) != conj.get((t, n))
                        for n, labels in slots[s].items())
    assert min(seen.values()) > 0, seen
    cx = product(randgen.circle(4), randgen.circle(4))[0]
    cells = cx.cell_ids()
    for acyc_degree, sizes in ((1, {(1, 1)}), (0, {(1, 1), (2, 2), (1, 2)})):
        pieces = [(randgen.SKY, frozenset(cells), 0, weights(cells)),
                  (randgen.ACYC, frozenset(cells), acyc_degree, weights(cells))]
        slots = randgen.PieceSheaf(cx, pieces, {}).slots
        assert len({id(per_degree) for per_degree in slots.values()}) == 1
        conj = {(c, n): randgen.random_invertible(rng, len(labels))
                for c, per_degree in slots.items() for n, labels in per_degree.items()}
        assert matches_reference(randgen.PieceSheaf(cx, pieces, conj)) == sizes


def test_blocks_between_slots_of_up_to_three_labels_match_the_conjugation_formula():
    """Seeded builds whose slots hold up to three labels (a sky piece in
    degree 0, acyclic pieces in degrees 0 and -1, a sky piece in degree 1,
    on random up-sets) equal _reference_sheaf block by block: with no
    conjugation, with a random share of slots conjugated and with every
    slot conjugated, under weights of both signs.  They reach non-square
    blocks between slots of several labels: 3x2 restrictions and 2x3
    differentials."""
    rng = random.Random(41)
    values = [Fraction(v) for v in (-3, -2, -1, 1, 2)] + [Fraction(-1, 2), Fraction(2, 3)]
    seen = dict.fromkeys(("3 labels", "3x2", "2x3", "3x3", "negative weight",
                          "bare slot", "conj={}"), 0)
    for _ in range(6):
        cx = rng.choice([randgen.full_simplex(3),
                         product(randgen.hollow_triangle(), randgen.interval())[0]])
        cells = cx.cell_ids()
        pieces = [(kind, randgen.random_upset(rng, cx), deg,
                   {c: rng.choice(values) for c in cells})
                  for kind, deg in ((randgen.SKY, 0), (randgen.ACYC, 0),
                                    (randgen.ACYC, -1), (randgen.SKY, 1))]
        slots = randgen.PieceSheaf(cx, pieces, {}).slots
        for share in (0, 0.6, 1):
            conj = {(c, n): randgen.random_invertible(rng, len(labels))
                    for c, per_degree in slots.items() for n, labels in per_degree.items()
                    if rng.random() < share}
            ps = randgen.PieceSheaf(cx, pieces, conj)
            ref = _reference_sheaf(ps)
            assert ps.sheaf.stalks == ref.stalks
            assert ps.sheaf.restrictions == ref.restrictions
            assert ps.sheaf.validate() == []
            seen["conj={}"] += not conj
            for c, per_degree in slots.items():
                for n, labels in per_degree.items():
                    if len(labels) > 1:
                        seen["3 labels"] += len(labels) == 3
                        seen["negative weight"] += any(pieces[i][3][c] < 0 for i, _ in labels)
                        seen["bare slot"] += (c, n) not in conj and bool(conj)
            shapes = [(m.rows, m.cols) for phi in ps.sheaf.restrictions.values()
                      for m in phi.values()]
            seen["3x2"] += shapes.count((3, 2))
            seen["3x3"] += shapes.count((3, 3))
            seen["2x3"] += [(m.rows, m.cols) for v in ps.sheaf.stalks.values()
                            for m in v.diffs.values()].count((2, 3))
    assert min(seen.values()) > 0, seen


def test_piece_sheaves_are_built_once_without_solving(monkeypatch):
    """One PieceSheaf per random_piece_sheaf, and no solve_unique call for
    conjugations that random_invertible drew; counted by wrappers installed
    on every conormal module that binds the two names."""
    counts = {"PieceSheaf": 0, "solve_unique": 0}
    init = randgen.PieceSheaf.__init__

    def counting_init(self, *args, **kwargs):
        counts["PieceSheaf"] += 1
        init(self, *args, **kwargs)

    def counting_solve(*args, **kwargs):
        counts["solve_unique"] += 1
        return solve_unique(*args, **kwargs)

    monkeypatch.setattr(randgen.PieceSheaf, "__init__", counting_init)
    for name, mod in list(sys.modules.items()):
        if name.startswith("conormal") and getattr(mod, "solve_unique", None) is solve_unique:
            monkeypatch.setattr(mod, "solve_unique", counting_solve)
    rng = random.Random(12)
    conjugated = 0
    for _ in range(30):
        cx = randgen.random_complex(rng, max_dim=2, max_vertices=6, max_cells=25)
        before = counts["PieceSheaf"]
        src = randgen.random_piece_sheaf(rng, cx)
        tgt = randgen.random_piece_sheaf(rng, cx, max_pieces=2)
        assert counts["PieceSheaf"] == before + 2
        random_morphism(rng, src, tgt)
        random_morphism(rng, src, src)
        conjugated += len(src.conj) + len(tgt.conj)
    assert conjugated and counts["solve_unique"] == 0


# sha256 of _instance_stream(): the random piece sheaves, morphisms and
# Lefschetz instances that seeded suites draw.  A change to the order of the
# random draws or to any entry of a generated matrix changes it.
INSTANCE_DIGEST = "af86dec04c956404e3cbc464d5cab16368ae23902570fcc9cb2993b979a97d45"

_DIGEST_SUITES = ("index", "compose", "external", "pushforward", "tensor", "duality")


def _components(phi):
    return {str(c): {str(n): fmt_matrix(m) for n, m in comp.items()}
            for c, comp in phi.items()}


def _instance_stream():
    """JSON lines describing seeded instances: per case of each suite, two
    random piece sheaves, a random morphism between them and an
    endomorphism of the first, a sheaf conjugated by random_invertible
    matrices from outside randgen (as bench/workloads.py builds them) and a
    random_sheaf; then forty random Lefschetz instances."""
    for suite in _DIGEST_SUITES:
        for i in range(40):
            rng = checks._case_rng(1, suite, i)
            cx = randgen.random_complex(rng, max_dim=2, max_vertices=6, max_cells=25)
            src = randgen.random_piece_sheaf(rng, cx)
            tgt = randgen.random_piece_sheaf(rng, cx, max_pieces=2)
            conj = {(c, n): randgen.random_invertible(rng, d)
                    for c, v in src.sheaf.stalks.items() for n, d in v.dims.items()}
            other = randgen.PieceSheaf(cx, src.pieces, conj)
            yield {"complex": describe_complex(cx),
                   "src": describe_sheaf(src.sheaf),
                   "tgt": describe_sheaf(tgt.sheaf),
                   "morphism": _components(random_morphism(rng, src, tgt).components),
                   "endo": _components(random_morphism(rng, src, src).components),
                   "reconjugated": describe_sheaf(other.sheaf),
                   "to_other": _components(random_morphism(rng, src, other).components),
                   "sheaf": describe_sheaf(randgen.random_sheaf(
                       rng, cx, max_pieces=2, degree_range=(-1, 1)))}
    for i in range(40):
        inst = randgen.random_lefschetz_instance(checks._case_rng(1, "lefschetz", i))
        yield {"sheaf": describe_sheaf(inst.sheaf), "phi": _components(inst.phi)}


def test_instance_digest_is_pinned():
    h = hashlib.sha256()
    for item in _instance_stream():
        h.update(json.dumps(item, sort_keys=True).encode())
        h.update(b"\n")
    assert h.hexdigest() == INSTANCE_DIGEST

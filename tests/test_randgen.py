import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from conormal import checks, randgen
from conormal.cellcx import product
from conormal.io import describe_complex, describe_sheaf, fmt_matrix
from conormal.qlinalg import Matrix, VectComplex, solve_unique, _add_multiple
from conormal.sheaf import CellularSheaf

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


def test_drawn_conjugations_keep_their_inverses_across_builds(monkeypatch):
    """Conjugations drawn before an unrelated piece sheaf is built give the
    PieceSheaf built from them afterwards their own inverses: no
    solve_unique call, and the blocks of a rebuild with solved inverses."""
    cx = randgen.hollow_triangle()
    cells = cx.cell_ids()
    rng = random.Random(5)
    pieces = [(kind, upset, 0, {c: randgen._rand_nonzero(rng) for c in cells})
              for kind, upset in ((randgen.SKY, frozenset(cells)),
                                  (randgen.ACYC, frozenset(cx.up_closure(["0"]))))]
    slots, _ = randgen._piece_slots(cx, pieces)
    conj = {(c, n): randgen.random_invertible(rng, len(labels))
            for c, per_degree in slots.items() for n, labels in per_degree.items()}
    assert {a.rows for a in conj.values()} == {1, 2}
    randgen.random_piece_sheaf(rng, cx)
    calls = []

    def counting_solve(*args):
        calls.append(args)
        return solve_unique(*args)

    monkeypatch.setattr(randgen, "solve_unique", counting_solve)
    drawn = randgen.PieceSheaf(cx, pieces, conj)
    assert calls == []
    # a.scale(1) is a plain Matrix equal to a
    solved = randgen.PieceSheaf(cx, pieces, {key: a.scale(1) for key, a in conj.items()})
    assert len(calls) >= len(conj)
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
    """_UNIT_DRAWS[i][j] is (a b, 1 / (a b)) for the nonzero factors a, b
    at positions i, j, and _NONZERO_INDEX draws those positions in the
    shape of _NONZEROS."""
    flat = [x for row in randgen._NONZEROS for x in row]
    assert len(randgen._UNIT_DRAWS) == len(flat)
    for a, row in zip(flat, randgen._UNIT_DRAWS):
        assert len(row) == len(flat)
        for b, (p, q) in zip(flat, row):
            assert p == a * b and p * q == 1
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
    random_invertible."""
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
                    foreign[(c, n)] = Matrix(1, 1, [[Fraction(-3, 2)]])
        other = randgen.PieceSheaf(cx, ps.pieces, foreign)
        assert describe_sheaf(other.sheaf) == describe_sheaf(_reference_sheaf(other))
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
        randgen.random_morphism(rng, src, tgt)
        randgen.random_morphism(rng, src, src)
        conjugated += len(src.conj) + len(tgt.conj)
    assert conjugated and counts["solve_unique"] == 0
    # a conjugation from elsewhere is inverted by solve_unique, which the
    # wrapper sees
    cx = randgen.hollow_triangle()
    whole = [(randgen.SKY, frozenset(cx.cell_ids()), 0, {c: Fraction(1) for c in cx.cell_ids()})]
    foreign = {(c, 0): Matrix(1, 1, [[2]]) for c in cx.cell_ids()}
    assert randgen.PieceSheaf(cx, whole, foreign).sheaf.validate() == []
    assert counts["solve_unique"] > 0


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
                   "morphism": _components(randgen.random_morphism(rng, src, tgt).components),
                   "endo": _components(randgen.random_morphism(rng, src, src).components),
                   "reconjugated": describe_sheaf(other.sheaf),
                   "to_other": _components(randgen.random_morphism(rng, src, other).components),
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

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from conormal import checks, randgen
from conormal.checks import run_checks
from conormal.io import describe_complex, describe_sheaf, fmt_matrix
from conormal.qlinalg import Matrix, solve_unique

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


def test_inverse_cache_is_emptied():
    assert run_checks(seed=1, cases=20).ok
    assert len(randgen._INV_CACHE) == 0
    rng = random.Random(3)
    src = randgen.random_piece_sheaf(rng, randgen.hollow_triangle())
    assert len(randgen._INV_CACHE) == 0
    randgen.random_invertible(rng, 3)
    assert len(randgen._INV_CACHE) == 1
    randgen.random_morphism(rng, src, src)
    assert len(randgen._INV_CACHE) == 0


def test_random_invertible_leaves_its_exact_inverse():
    rng = random.Random(8)
    try:
        for n in range(1, 9):
            for _ in range(5):
                a = randgen.random_invertible(rng, n)
                got, inv = randgen._INV_CACHE[id(a)]
                assert got is a
                assert inv == solve_unique(a, Matrix.identity(n))
                assert a * inv == Matrix.identity(n)
    finally:
        randgen._INV_CACHE.clear()


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
        assert len(randgen._INV_CACHE) == 0
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

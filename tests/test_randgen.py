import json
import os
import subprocess
import sys
from pathlib import Path

from conormal import randgen
from conormal.checks import run_checks

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

"""What a fresh interpreter loads.

scipy and mpmath are imported inside the functions that use them, so a
route that needs neither, such as the intertwining and factorization
certificates, never pays for loading them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import fracstable

CHILD = """
import json, math, sys

def loaded(*tops):
    return sorted(m for m in sys.modules if m.split(".")[0] in tops)

import fracstable
from fracstable.testfuncs import REGISTRY

bare = loaded("scipy", "mpmath")
assert fracstable.check_intertwining(REGISTRY["gauss"], 1.5, [0.5, 2.0]).passed
assert fracstable.check_factorization(1.5, [0.25, 0.5]).passed
checks = loaded("scipy")
fracstable.adaptive_quad(math.exp, 0.0, 1.0)
print(json.dumps({"file": fracstable.__file__, "bare": bare,
                  "checks": checks,
                  "quad": "scipy.integrate" in sys.modules}))
"""


def test_intertwining_and_factorization_load_no_scipy():
    # the child imports the package this suite imported, installed or not
    root = str(Path(fracstable.__file__).resolve().parents[1])
    path = [root] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", CHILD],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert Path(seen["file"]).resolve() == Path(fracstable.__file__).resolve()
    assert seen["bare"] == []
    assert seen["checks"] == []
    # the positive control: the child does see a module its route loads
    assert seen["quad"]

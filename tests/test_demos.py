"""Every narrative demo runs to completion and prints its headline result."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = {
    "01_network_topology.py": "K = C(5,2) = 10 UEs, each EN serves L = C(4,1) = 4 UEs",
    "02_aligned_delivery.py": "structural recount agrees: True",
    "03_soft_transfer.py": "  24 steps of exactly H + t_U = 5 chunks each: True",
    "04_split_zero_forcing.py": "recovery under beamforming: 6/6 files rebuilt bit-exactly",
    "05_scheme_comparison.py": "crossover quality at mu_r = 7/10: rho_th = 4/17 ~ 0.2353",
}

#: the whole stdout of the seeded demos, which must not change by a byte
FULL_STDOUT = {
    "02_aligned_delivery.py": (
        "network: 5 ENs x 10 UEs, file size 64 bits, UE share 1/4, EN share 0\n"
        "placement: t_E = 1, UE 1 caches 20 coded pieces\n"
        "delivery: 30 fronthaul multicasts, 0 EN-local\n"
        "  first multicast: EN 1, rank subset (1, 2), addressees [1, 2]\n"
        "alignment: 10 transmit directions (3 interference rows per UE)\n"
        "certification: ok\n"
        "decode: 10/10 files rebuilt bit-exactly\n"
        "delivery time at rho=1: 15/8 = 3/4 fronthaul + 9/8 edge\n"
        "structural recount agrees: True\n"
    ),
}


def test_every_demo_is_covered():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMOS)


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert DEMOS[name] in proc.stdout.splitlines()
    if name in FULL_STDOUT:
        assert proc.stdout == FULL_STDOUT[name]

"""Stress probes: known blow-ups run once per invocation, each in one child
process under a wall-time limit and an address-space cap.  A probe that
hits a limit is recorded as ``exceeded`` with that limit, never dropped.
"""

from __future__ import annotations

import random
import resource
import subprocess
import sys
import time
from pathlib import Path

from inputs import presentation_text, random_forest

ADDRESS_SPACE_MB = 1024

RING_CODE = """
import time
from npicheck.minima import MIN, MinimaMultiset, weak_concatenability
k = 16
# Relator i has usable witness i; relator i-1 carries i in its support.
ring = [MinimaMultiset(i, MIN, 0, {i: (1, 0), (i + 1) % k: (1, 1)}) for i in range(k)]
t = time.monotonic()
out = weak_concatenability(ring)
print(type(out).__name__, round(time.monotonic() - t, 3))
"""


def _chain_text(k: int) -> str:
    gens = [f"g{i}" for i in range(k + 1)]
    return "gens: " + " ".join(gens) + "\n" + "".join(
        f"rel: g{i}^-1 g{i + 1}\n" for i in range(k)
    )


def _rank7_text() -> str:
    rng = random.Random(7)
    return presentation_text(9, random_forest(9, 2, rng))


PROBES = (
    # name, what it stresses, wall-time limit in seconds, known behaviour
    ("ring-k16", "subset DP on the k=16 non-concatenable ring", 2.0,
     "the DP enumerates 2^16 states; ~179 s to finish"),
    ("chain-21", "CLI report on the 21-relator chain g_i^-1 g_(i+1)", 30.0,
     "trivially concatenable, yet exits 2 as if the input were malformed"),
    ("forest-rank7", "CLI report on a reduced forest of H1 rank 7 (9 vertices, 2 edges)", 2.0,
     "the weight search grows as 7^rank; ran past 100 s and 3.7 GB"),
)


def _limit_address_space():
    cap = ADDRESS_SPACE_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def run_probes(root: Path, work: Path, env: dict) -> list[dict]:
    """Start every probe, wait for each within its limit, record the outcome."""
    work.mkdir(parents=True, exist_ok=True)
    (work / "chain21.pres").write_text(_chain_text(21))
    (work / "rank7.pres").write_text(_rank7_text())
    cli = [sys.executable, "-m", "npicheck.cli", "report", "--json"]
    argv = {
        "ring-k16": [sys.executable, "-c", RING_CODE],
        "chain-21": cli + [str(work / "chain21.pres")],
        "forest-rank7": cli + [str(work / "rank7.pres")],
    }
    running = []
    for name, what, wall, known in PROBES:
        out = open(work / f"{name}.out", "w+")
        proc = subprocess.Popen(
            argv[name], cwd=root, env=env, stdout=out, stderr=subprocess.STDOUT,
            preexec_fn=_limit_address_space,
        )
        running.append((name, what, wall, known, proc, out, time.monotonic()))
    outcomes = {}
    while len(outcomes) < len(running):
        now = time.monotonic()
        for name, _, wall, _, proc, _, start in running:
            if name in outcomes:
                continue
            if proc.poll() is not None:
                outcomes[name] = (proc.returncode, now - start, False)
            elif now >= start + wall:
                proc.kill()
                outcomes[name] = (proc.wait(), now - start, True)
        time.sleep(0.01)
    records = []
    for name, what, wall, known, proc, out, start in running:
        code, elapsed, timed_out = outcomes[name]
        out.seek(0)
        text = out.read().strip()
        out.close()
        last = text.splitlines()[-1] if text else ""
        record = {
            "name": name,
            "stresses": what,
            "limits": {"wall_s": wall, "address_space_mb": ADDRESS_SPACE_MB},
            "elapsed_s": round(elapsed, 3),
            "known": known,
        }
        if timed_out:
            record.update(status="exceeded", limit="wall_s")
        elif code != 0 and "MemoryError" in text:
            record.update(status="exceeded", limit="address_space_mb")
        else:
            record.update(status="completed", exit=code, output=last[:200])
        records.append(record)
    return records

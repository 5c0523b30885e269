"""Regenerate perfbench/expected.json: the shipped seed tables of the
sequence workloads, each entry with its step count, degrees and the
SHA-256 digest of its trace JSON.

    python3 perfbench/make_expected.py

It builds every sequence once (about a minute and a half on a 2-core
Xeon without gmpy2).  Run it only when the trace format or the
construction changes on purpose; the benchmark counts any other change
of a digest as a failed item.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from irrseq import FpPoly, SeqConfig, build_sequence  # noqa: E402

TABLES = {
    # name: (p, seed constants c of f0 = x + c, top degree, warm-up steps)
    "doubling": (7, [0, 2, 3, 4, 5], 2048, 8),
    "wide": (2147483587, [0, 2, 3, 4, 5, 6, 7, 8], 256, 6),
}


def steps_to(p: int, f0: FpPoly, top: int) -> int:
    # past degree 4n every step doubles, so a short probe run fixes the count
    probe = build_sequence(SeqConfig(p=p, f0=f0, target_steps=8)).degrees()
    i = next(k for k, d in enumerate(probe) if d >= 4 * f0.degree)
    return i + (top // probe[i]).bit_length() - 1


def main() -> None:
    out = {}
    for name, (p, consts, top, warm) in TABLES.items():
        seeds = []
        for c in consts:
            f0 = FpPoly([c, 1], p)
            steps = steps_to(p, f0, top)
            trace = build_sequence(SeqConfig(p=p, f0=f0, target_steps=steps))
            assert trace.degrees()[-1] == top
            seeds.append({"c": c, "steps": steps, "degrees": trace.degrees(),
                          "sha256": hashlib.sha256(trace.to_json().encode()).hexdigest()})
            print(name, c, steps, seeds[-1]["sha256"][:12], flush=True)
        out[name] = {"p": p, "top_degree": top, "warm_steps": warm, "seeds": seeds}
    (HERE / "expected.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()

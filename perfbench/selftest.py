"""Self-test of the benchmark's checks: right results pass, corrupted ones fail.

    python3 perfbench/run.py --self-test

Runs every workload's ``check`` on small real results, then on copies
with one thing broken, and exits non-zero unless each clean result
passes and each corrupted one is counted as a failure.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import irrseq.extfield as ext
import irrseq.graph as graph
import irrseq.poly as poly
import irrseq.sequence as seq

import run
import tracer
import workloads
from workloads import Item


def _sequence_cases():
    wl = workloads.Sequence("doubling")
    p, f0 = 7, poly.FpPoly([0, 1], 7)
    trace = seq.build_sequence(seq.SeqConfig(p=p, f0=f0, target_steps=6))
    entry = {"c": 0, "steps": 6, "degrees": trace.degrees(),
             "sha256": hashlib.sha256(trace.to_json().encode()).hexdigest()}
    inputs = (p, f0, entry)
    yield "sequence: clean trace", wl, Item(1.0, trace, inputs), False

    k = next(i for i, r in enumerate(trace.steps) if r.factors)
    rec = trace.steps[k]
    g1, g2 = rec.factors
    steps = list(trace.steps)
    steps[k] = dataclasses.replace(rec, factors=(g1, g1 + poly.FpPoly([1], p)))
    yield ("sequence: split factor altered", wl,
           Item(1.0, dataclasses.replace(trace, steps=tuple(steps)), inputs), True)
    yield ("sequence: degree table differs", wl,
           Item(1.0, trace, (p, f0, dict(entry, degrees=entry["degrees"][:-1] + [32]))), True)
    yield ("sequence: digest differs", wl,
           Item(1.0, trace, (p, f0, dict(entry, sha256="0" * 64))), True)


def _split_cases():
    wl = workloads.Split()
    f = wl.generate(3, count=1, degree=16)[0]
    res = ext.factor_r(f)
    yield "split: clean factorization", wl, Item(1.0, res, f), False
    g1, g2 = res.factors
    yield ("split: factors swapped for a non-reciprocal pair", wl,
           Item(1.0, dataclasses.replace(res, factors=(g1, g1)), f), True)
    h = poly.FpPoly(f"x^{f.degree - 1}+1", f.p) * poly.FpPoly("x+2", f.p)
    yield ("split: reducible factor with its reciprocal", wl,
           Item(1.0, dataclasses.replace(res, factors=(h, h.reciprocal())), f), True)
    yield ("split: reported irreducible", wl,
           Item(1.0, dataclasses.replace(res, factors=None), f), True)


def _graph_cases():
    wl = workloads.Graph()
    fld = ext.ExtField(3, poly.FpPoly([1, 2, 0, 1], 3))   # x^3 + 2x + 1
    for q_field in (103, fld):
        g = graph.build_graph(q_field)
        good = (g, graph.verify_tree_structure(g), graph.conjugacy_check(g))
        yield f"graph q={g.q}: clean", wl, Item(1.0, [good], None), False
        bent = dataclasses.replace(g, successor=g.successor[:])
        bent.successor[5] = bent.successor[6]
        yield (f"graph q={g.q}: one successor moved", wl,
               Item(1.0, [(bent, good[1], good[2])], None), True)
        yield (f"graph q={g.q}: conjugacy reported false", wl,
               Item(1.0, [(g, good[1], False)], None), True)
        report = dataclasses.replace(good[1], violations=["injected"])
        yield (f"graph q={g.q}: tree report not ok", wl,
               Item(1.0, [(g, report, True)], None), True)


def _contract_problems() -> list[str]:
    # the metric lists the runner prints must be the ones BENCHMARK.json names
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    if not path.is_file():
        return []
    doc = json.loads(path.read_text())
    out = []
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    if e2e != run.END_TO_END_UNITS:
        out.append("end_to_end metrics differ from run.END_TO_END_UNITS")
    layer = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    if layer != tracer.per_layer_names():
        out.append("per_layer metrics differ from tracer.per_layer_names()")
    return out


def main() -> int:
    wrong = 0
    for problem in _contract_problems():
        print(f"FAIL BENCHMARK.json: {problem}")
        wrong += 1
    for cases in (_sequence_cases(), _split_cases(), _graph_cases()):
        for label, wl, item, corrupted in cases:
            bad = wl.check(item)
            ok = bool(bad) == corrupted
            wrong += not ok
            verdict = "counted as failure" if bad else "passed"
            print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}")
    print(f"self-test: {'all checks behave' if not wrong else f'{wrong} wrong'}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())

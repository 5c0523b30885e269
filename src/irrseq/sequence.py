"""Construction of irreducible polynomial sequences with audit traces.

Starting from a monic irreducible seed (excluding x+1 and x-1) the
builder repeatedly factors the doubling transform of the latest
polynomial: an irreducible transform becomes the next element, a split
transform contributes one of its two equal-degree factors, chosen by a
deterministic tie-break policy.  If the very first split sends the run
down the stalling branch (detected when the degree has not doubled
after e0 + 1 steps, e0 the 2-adic valuation of p**n - 1), the run is
restarted once with the other factor; the discarded prefix is kept in
the trace for auditing.

Every constructed polynomial is re-verified irreducible, and the trace
records both factors of every split so downstream analysis never needs
to refactor anything.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

from .errors import InternalInvariantError
from .extfield import RFactorization, _validate_seed, factor_r
from .fp import nu2, require_odd_prime
from .poly import FpPoly

TRACE_FORMAT_VERSION = 1


class TieBreak(enum.Enum):
    """Policy for picking one factor of a split transform."""

    DESCENDING_LEX = "descending-lex"
    FIRST = "first"
    SECOND = "second"


def choose_factor(g1: FpPoly, g2: FpPoly, policy: TieBreak) -> tuple[FpPoly, FpPoly]:
    """Return (chosen, other) according to the tie-break policy.

    DESCENDING_LEX compares coefficient vectors from the leading
    coefficient downward (canonical representatives in [0, p)) and picks
    the smaller; FIRST and SECOND pick positionally, which is useful for
    reproducing alternative runs.
    """
    if g1.degree != g2.degree or not (g1.is_monic and g2.is_monic):
        raise ValueError("tie-break expects two monic polynomials of equal degree")
    if policy is TieBreak.FIRST:
        return g1, g2
    if policy is TieBreak.SECOND:
        return g2, g1
    if tuple(reversed(g1.coeffs)) <= tuple(reversed(g2.coeffs)):
        return g1, g2
    return g2, g1


@dataclass(frozen=True)
class SeqConfig:
    """Parameters of a sequence run."""

    p: int
    f0: FpPoly
    target_steps: int
    tie_break: TieBreak = TieBreak.DESCENDING_LEX

    def __post_init__(self):
        require_odd_prime(self.p)
        if self.f0.p != self.p:
            raise ValueError("seed polynomial does not match the prime")
        if self.target_steps < 1:
            raise ValueError("target_steps must be at least 1")
        _validate_seed(self.f0, trusted=False)


@dataclass(frozen=True)
class StepRecord:
    """One constructed polynomial: what was transformed and what came out."""

    index: int
    input_poly: FpPoly
    r_poly: FpPoly
    outcome: str                      # "irreducible" | "split"
    factors: tuple[FpPoly, FpPoly] | None
    chosen: int | None                # 1-based position within factors
    degree: int

    @property
    def result_poly(self) -> FpPoly:
        return self.r_poly if self.factors is None else self.factors[self.chosen - 1]


@dataclass(frozen=True)
class SeqTrace:
    """Full record of a sequence run."""

    p: int
    f0: FpPoly
    tie_break: TieBreak
    target_steps: int
    e0: int
    e1: int
    s1: int
    s2: int
    backtracked: bool
    factorization_count: int
    factorization_bound: int
    steps: tuple[StepRecord, ...]
    discarded: tuple[StepRecord, ...] = field(default=())

    def polynomials(self) -> list[FpPoly]:
        """The sequence f0, f1, ..., f_target."""
        return [self.f0] + [s.result_poly for s in self.steps]

    def degrees(self) -> list[int]:
        return [f.degree for f in self.polynomials()]

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "format_version": TRACE_FORMAT_VERSION,
            "p": self.p,
            "f0": str(self.f0),
            "tie_break": self.tie_break.value,
            "target_steps": self.target_steps,
            "e0": self.e0,
            "e1": self.e1,
            "s1": self.s1,
            "s2": self.s2,
            "backtracked": self.backtracked,
            "factorization_count": self.factorization_count,
            "factorization_bound": self.factorization_bound,
            "steps": [_step_dict(s) for s in self.steps],
            "discarded": [_step_dict(s) for s in self.discarded],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SeqTrace":
        doc = json.loads(text)
        if doc.get("format_version") != TRACE_FORMAT_VERSION:
            raise ValueError(f"unsupported trace format {doc.get('format_version')!r}")
        p = doc["p"]
        return cls(
            p=p,
            f0=FpPoly(doc["f0"], p),
            tie_break=TieBreak(doc["tie_break"]),
            target_steps=doc["target_steps"],
            e0=doc["e0"],
            e1=doc["e1"],
            s1=doc["s1"],
            s2=doc["s2"],
            backtracked=doc["backtracked"],
            factorization_count=doc["factorization_count"],
            factorization_bound=doc["factorization_bound"],
            steps=tuple(_step_from_dict(d, p) for d in doc["steps"]),
            discarded=tuple(_step_from_dict(d, p) for d in doc["discarded"]),
        )


def _step_dict(s: StepRecord) -> dict:
    return {
        "index": s.index,
        "input": str(s.input_poly),
        "r_poly": str(s.r_poly),
        "outcome": s.outcome,
        "factors": [str(g) for g in s.factors] if s.factors else [],
        "chosen": s.chosen,
        "degree": s.degree,
    }


def _step_from_dict(d: dict, p: int) -> StepRecord:
    factors = tuple(FpPoly(t, p) for t in d["factors"]) or None
    return StepRecord(
        index=d["index"],
        input_poly=FpPoly(d["input"], p),
        r_poly=FpPoly(d["r_poly"], p),
        outcome=d["outcome"],
        factors=factors,
        chosen=d["chosen"],
        degree=d["degree"],
    )


def build_sequence(cfg: SeqConfig) -> SeqTrace:
    """Run the sequence construction and return its trace.

    The trace satisfies, and the builder enforces, the structural
    guarantees of the construction: degrees form a block of n's, then a
    block of 2n's, then double strictly; the first block has at most
    e0 + 1 polynomials and the second exactly e1 - e0 once the doubling
    regime is reached; at most one restart ever happens.
    """
    n = cfg.f0.degree
    p = cfg.p
    e0 = nu2(p ** n - 1)
    e1 = nu2(p ** (2 * n) - 1)
    first = factor_r(cfg.f0, trusted=True)

    records, stalled = _run_attempt(cfg, first, n, e0, forced_first=None)
    discarded: tuple[StepRecord, ...] = ()
    backtracked = False
    if stalled:
        backtracked = True
        discarded = tuple(records)
        other = 3 - records[0].chosen
        records, stalled = _run_attempt(cfg, first, n, e0, forced_first=other)
        if stalled:
            raise InternalInvariantError(
                "both factors of the first split stalled; the construction "
                "guarantees the second branch reaches the doubling regime")

    s1, s2 = _segment_lengths(cfg.f0, records, n, e0, e1)
    count = _factorization_count(first, records, discarded, backtracked, n)
    bound = (e0 + e1 + 1) if backtracked else (e1 + 1)
    if count > bound:
        raise InternalInvariantError(
            f"{count} factorizations exceed the guaranteed bound {bound}")
    return SeqTrace(
        p=p,
        f0=cfg.f0,
        tie_break=cfg.tie_break,
        target_steps=cfg.target_steps,
        e0=e0,
        e1=e1,
        s1=s1,
        s2=s2,
        backtracked=backtracked,
        factorization_count=count,
        factorization_bound=bound,
        steps=tuple(records),
        discarded=discarded,
    )


def _run_attempt(cfg: SeqConfig, first: RFactorization, n: int, e0: int,
                 forced_first: int | None) -> tuple[list[StepRecord], bool]:
    records: list[StepRecord] = []
    cur = cfg.f0
    for i in range(1, cfg.target_steps + 1):
        res = first if i == 1 else factor_r(cur, trusted=True)
        if res.is_irreducible:
            nxt = res.r_poly
            rec = StepRecord(i, cur, res.r_poly, "irreducible", None, None, nxt.degree)
        else:
            g1, g2 = res.factors
            if i == 1 and forced_first is not None:
                idx = forced_first
            else:
                chosen, _ = choose_factor(g1, g2, cfg.tie_break)
                idx = 1 if chosen == g1 else 2
            nxt = res.factors[idx - 1]
            rec = StepRecord(i, cur, res.r_poly, "split", res.factors, idx, nxt.degree)
        if not nxt.is_irreducible():
            raise InternalInvariantError(f"constructed polynomial {nxt} is reducible")
        records.append(rec)
        cur = nxt
        if (i == e0 + 1 and cur.degree == n
                and not first.is_irreducible and forced_first is None):
            # wrong branch of the first split: the degree was guaranteed
            # to double within e0 + 1 steps on the good branch
            return records, True
    return records, False


def _segment_lengths(f0: FpPoly, records: list[StepRecord], n: int,
                     e0: int, e1: int) -> tuple[int, int]:
    degrees = [f0.degree] + [r.degree for r in records]
    s1 = sum(1 for d in degrees if d == n)
    s2 = sum(1 for d in degrees if d == 2 * n)
    expect = [n] * s1 + [2 * n] * s2
    while len(expect) < len(degrees):
        expect.append(expect[-1] * 2 if expect[-1] >= 2 * n else 2 * n)
    if degrees != expect:
        raise InternalInvariantError(f"degree pattern {degrees} is not monotone doubling")
    if s2 and s1 > e0 + 1:
        raise InternalInvariantError(f"s1 = {s1} exceeds e0 + 1 = {e0 + 1}")
    if degrees[-1] >= 4 * n and s2 != e1 - e0:
        raise InternalInvariantError(f"s2 = {s2} differs from e1 - e0 = {e1 - e0}")
    return s1, s2


def _factorization_count(first: RFactorization, records: list[StepRecord],
                         discarded: tuple[StepRecord, ...], backtracked: bool,
                         n: int) -> int:
    # Splits performed before the first polynomial of degree 4n, counting
    # the shared first factorization once plus one for a restart.
    count = 0 if first.is_irreducible else 1
    if backtracked:
        count += 1
        count += sum(1 for r in discarded if r.index >= 2 and r.outcome == "split"
                     and r.input_poly.degree < 4 * n)
    count += sum(1 for r in records if r.index >= 2 and r.outcome == "split"
                 and r.input_poly.degree < 4 * n)
    return count

"""The benchmark's traced mode patches irrseq functions by name; a rename
or deletion of one of them must fail here rather than in a traced run."""

import importlib.util
from pathlib import Path

import irrseq

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_and_uninstalls():
    originals = (irrseq.factor_r, irrseq.ExtField.is_square,
                 irrseq._arith.ModCtx.norm_to_prime)
    tracer = _load_tracer().Tracer()
    try:
        tracer.install(irrseq)
        assert irrseq.factor_r is not originals[0]
    finally:
        tracer.uninstall()
    assert (irrseq.factor_r, irrseq.ExtField.is_square,
            irrseq._arith.ModCtx.norm_to_prime) == originals

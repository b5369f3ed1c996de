"""Every refutation of the quick suite against the full-copy reference.

The long variant of ``tests/sat/test_proof_layer_oracle.py``: each
interpolating engine runs every quick-suite instance under both sequence
check formulations (``ASSUME`` and ``EXACT``), solo (group-proof
bounds, serial suffix steps, CBA abstract bounds) and on a share port
with no peer (fresh refutations, the path of share-attached runs and of
a rejected strip).  Each refutation is checked against that module's
reference once the run is over: partition spans, every cut's AIG literal
under both interpolation systems, core order, materialised originals,
and the strip and trim counters.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.bmc.checks import BmcCheckKind
from repro.circuits import quick_suite

_ORACLE = (Path(__file__).resolve().parents[1] / "sat"
           / "test_proof_layer_oracle.py")


def _oracle():
    spec = importlib.util.spec_from_file_location("_proof_layer_oracle",
                                                  _ORACLE)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


@pytest.mark.parametrize("peerless", [False, True],
                         ids=["group", "fresh"])
@pytest.mark.parametrize("kind", [BmcCheckKind.ASSUME, BmcCheckKind.EXACT],
                         ids=lambda k: k.name.lower())
@pytest.mark.parametrize("engine", ["itp", "itpseq", "sitpseq", "itpseqcba"])
def test_quick_suite_refutations_match_the_reference(monkeypatch, engine,
                                                     kind, peerless):
    oracle = _oracle()
    recorder = oracle.Recorder(monkeypatch)
    checked = 0
    for instance in quick_suite():
        oracle.run_recorded(recorder, engine, instance.name,
                            peerless=peerless, bmc_check=kind)
        checked += recorder.check(systems=("mcmillan", "pudlak"))
    assert checked > 0

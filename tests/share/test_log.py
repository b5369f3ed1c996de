"""The replayable share log: round-trips and torn-line tolerance."""

import hashlib
import json

import pytest

from repro.aig import write_aag
from repro.circuits import get_instance
from repro.share.lemma import DepthLemma, lemma_hash
from repro.share.log import ShareLog, read_share_log


def _write_sample(path):
    log = ShareLog(str(path))
    log.header("cafe0123cafe0123", ["itp", "pdr"])
    log.published(0, "pdr", DepthLemma(depth=2))
    log.published(1, "itp", DepthLemma(depth=3))
    log.accepted("itp", 2, [0])
    log.accepted("pdr", 3, [1])
    log.accepted("pdr", 3, [])  # empty accepts write nothing
    log.close()


def test_share_log_round_trip(tmp_path):
    path = tmp_path / "share.jsonl"
    _write_sample(path)
    data = read_share_log(str(path))
    assert data.fingerprint == "cafe0123cafe0123"
    assert data.engines == ["itp", "pdr"]
    assert sorted(data.published) == [0, 1]
    assert data.published[0].lemma == DepthLemma(depth=2)
    assert data.published[1].lemma == DepthLemma(depth=3)
    assert data.published[0].source == "pdr"
    assert [s.seq for s in data.deliveries("itp", 2)] == [0]
    assert [s.seq for s in data.deliveries("pdr", 3)] == [1]
    assert data.deliveries("itp", 99) == []


def test_share_log_tolerates_torn_final_line(tmp_path):
    path = tmp_path / "share.jsonl"
    _write_sample(path)
    # A loser killed mid-write leaves a truncated last line; the complete
    # prefix must stay fully usable.
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"t":"pub","seq":2,"src":"itp","lemma":{"kind":"d')
    data = read_share_log(str(path))
    assert sorted(data.published) == [0, 1]
    assert [s.seq for s in data.deliveries("itp", 2)] == [0]


def test_share_log_skips_junk_and_corrupted_records(tmp_path):
    path = tmp_path / "share.jsonl"
    _write_sample(path)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("not json at all\n")
        # Hash mismatch: payload corrupted in flight -> record dropped.
        handle.write('{"t":"pub","seq":7,"src":"itp",'
                     '"lemma":{"kind":"depth","depth":9},"hash":"0000"}\n')
        # Unknown record types are ignored, later records still parse.
        handle.write('{"t":"wat"}\n')
        handle.write('{"t":"acc","eng":"itp","bnd":5,"seqs":[1]}\n')
    data = read_share_log(str(path))
    assert 7 not in data.published
    assert [s.seq for s in data.deliveries("itp", 5)] == [1]


def test_share_log_missing_file_raises():
    # Only torn or junk *lines* are tolerated: an unreadable log would
    # otherwise replay as an empty one, i.e. as a silent solo run.
    with pytest.raises(OSError):
        read_share_log("/nonexistent/share.jsonl")


#: Wire records of retired lemma kinds, as logs of their time wrote them.
_RETIRED = {
    "reach": {"kind": "reach", "bound": 2, "leaves": [2, 4],
              "nodes": [[2, 5]], "root": 6},
    "frame": {"kind": "frame", "level": 2, "cube": [[2, 1], [6, 0]]},
}


@pytest.mark.parametrize("kind", sorted(_RETIRED))
def test_share_log_skips_retired_records(tmp_path, capsys, kind):
    # Logs written before a lemma kind was retired still load: its pub
    # record is skipped as junk, and --share-replay delivers the log's
    # other accepted lemmas.
    from repro.__main__ import main

    retired = _RETIRED[kind]
    retired_hash = hashlib.sha256(json.dumps(
        retired, sort_keys=True, separators=(",", ":")).encode("ascii")
    ).hexdigest()[:16]
    depth = DepthLemma(depth=1)
    records = [
        {"t": "pub", "seq": 0, "src": "itp", "lemma": retired,
         "hash": retired_hash},
        {"t": "pub", "seq": 1, "src": "bmc", "lemma": depth.to_wire(),
         "hash": lemma_hash(depth)},
        {"t": "acc", "eng": "itpseq", "bnd": 2, "seqs": [0, 1]},
    ]
    path = tmp_path / "old.jsonl"
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                            for r in records), encoding="utf-8")

    data = read_share_log(str(path))
    assert sorted(data.published) == [1]
    assert [s.lemma for s in data.deliveries("itpseq", 2)] == [depth]

    aag = str(tmp_path / "ring04.aag")
    write_aag(get_instance("ring04").build().aig, aag)
    assert main([aag, "--engine", "itpseq", "--share-replay", str(path),
                 "--stats"]) == 0
    assert "lemmas_rx: 1\n" in capsys.readouterr().out

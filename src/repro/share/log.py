"""The replayable share log.

Every cooperative run can record its lemma traffic as JSON lines (same
conventions as :mod:`repro.obs.sinks`: sorted keys, compact separators,
one flush per line so a terminated worker leaves a clean prefix of
complete lines).  Three record types:

* ``hdr`` — written once: the shared model's fingerprint and the
  participating engines, so a replay against the wrong circuit fails fast;
* ``pub`` — one per published lemma: global sequence number, source
  engine, the lemma's wire form and its content hash;
* ``acc`` — one per non-empty import: the importing engine, the
  bound/obligation boundary at which the import was applied, and the
  sequence numbers accepted there.

Replay (:class:`repro.share.bus.ReplayShareBus`) re-delivers, at each
engine's boundary ``b``, exactly the lemmas the ``acc`` records name for
``(engine, b)`` — so a run that consumed foreign lemmas regenerates
bit-identically from its log, whatever produced the log (the in-process
cooperative runner or a live multi-process race).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .lemma import Lemma, SharedLemma, lemma_from_wire, lemma_hash

__all__ = ["ShareLog", "ShareLogData", "read_share_log"]


class ShareLog:
    """Append-only JSONL writer for share traffic (single-writer)."""

    def __init__(self, path: str) -> None:
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._handle = open(path, "w", encoding="utf-8")
        self._closed = False

    def _write(self, record: Dict[str, object]) -> None:
        if self._closed:
            return
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        self._handle.write(line + "\n")
        # One flush per line: a killed worker's parent still reads a clean
        # prefix of complete records (torn-line semantics, as obs.sinks).
        self._handle.flush()

    def header(self, fingerprint: str, engines: List[str]) -> None:
        self._write({"t": "hdr", "model": fingerprint,
                     "engines": list(engines)})

    def published(self, seq: int, source: str, lemma: Lemma) -> None:
        self._write({"t": "pub", "seq": seq, "src": source,
                     "lemma": lemma.to_wire(), "hash": lemma_hash(lemma)})

    def accepted(self, engine: str, boundary: int, seqs: List[int]) -> None:
        if not seqs:
            return
        self._write({"t": "acc", "eng": engine, "bnd": boundary,
                     "seqs": list(seqs)})

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._handle.close()


@dataclass
class ShareLogData:
    """A parsed share log: publications plus per-(engine, boundary) accepts."""

    fingerprint: Optional[str] = None
    engines: List[str] = field(default_factory=list)
    published: Dict[int, SharedLemma] = field(default_factory=dict)
    #: (engine, boundary) -> accepted sequence numbers, in log order.
    accepted: Dict[Tuple[str, int], List[int]] = field(default_factory=dict)

    def deliveries(self, engine: str, boundary: int) -> List[SharedLemma]:
        """The lemmas ``engine`` accepted at ``boundary``, in accept order."""
        out: List[SharedLemma] = []
        for seq in self.accepted.get((engine, boundary), []):
            shared = self.published.get(seq)
            if shared is not None:  # pub line torn off: skip, stay parseable
                out.append(shared)
        return out


def read_share_log(path: str) -> ShareLogData:
    """Parse a share log, tolerating a torn final line and junk records.

    A worker terminated mid-``pub`` leaves a truncated last line; it is
    skipped, as are records that fail to decode — the log's complete
    prefix is always usable (the race-loser-kill contract).  A log that
    cannot be read at all raises :class:`OSError`: replaying it as empty
    would silently turn a replay into a solo run.
    """
    data = ShareLogData()
    with open(path, "r", encoding="utf-8") as handle:
        raw = handle.read()
    for line in raw.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            kind = record.get("t")
            if kind == "hdr":
                data.fingerprint = record["model"]
                data.engines = list(record["engines"])
            elif kind == "pub":
                seq = int(record["seq"])
                lemma = lemma_from_wire(record["lemma"])
                if record.get("hash") != lemma_hash(lemma):
                    continue  # corrupted payload: drop the record
                data.published[seq] = SharedLemma(seq=seq,
                                                  source=str(record["src"]),
                                                  lemma=lemma)
            elif kind == "acc":
                key = (str(record["eng"]), int(record["bnd"]))
                data.accepted.setdefault(key, []).extend(
                    int(s) for s in record["seqs"])
        except (ValueError, KeyError, TypeError):
            continue  # torn or junk line: the prefix before it still counts
    return data

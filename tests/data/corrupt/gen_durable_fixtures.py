#!/usr/bin/env python3
"""Regenerates every binary durable-state fixture pinned by
corrupt_corpus_test: the checkpoints (*.ckpt), the journals
(journal_*.wal) and the persisted result caches (cache_*.bin).

All three formats are sequences of the one CRC frame in
src/robust/wire.h, and frame() mirrors robust::appendFrame; zlib.crc32
matches the repo's IEEE seed-0 crc32. Each *bad_magic* fixture is a
valid file in the format's previous version, so the upgrade path (an
older file is foreign) stays pinned.

    python3 gen_durable_fixtures.py [OUTDIR]   # default: this directory

CI regenerates into a temporary directory and compares every file with
the committed one, so a hand edit or generator drift fails the build.
"""
import os
import struct
import sys
import zlib

CKPT = b"MLC2"
JOURNAL = b"MLJ2"
CACHE = b"MLR2"


def crc(b: bytes) -> int:
    return zlib.crc32(b) & 0xFFFFFFFF


def frame(magic: bytes, tag: int, payload: bytes) -> bytes:
    """robust::appendFrame: magic | tag | len | crc(tag, len, payload) | payload."""
    head = struct.pack("<IQ", tag, len(payload))
    return magic + head + struct.pack("<I", crc(head + payload)) + payload


def flip(data: bytes, offset: int, mask: int) -> bytes:
    out = bytearray(data)
    out[offset] ^= mask
    return bytes(out)


def wstr(s: str) -> bytes:
    raw = s.encode()
    return struct.pack("<I", len(raw)) + raw


def blob(b: bytes) -> bytes:
    return struct.pack("<Q", len(b)) + b


# ---- payload codecs (src/serve/job.cpp, src/robust/checkpoint.cpp) ----

def request(job_id: str) -> bytes:
    """encodeJobRequest(req, attempt=0), wire version 1."""
    b = struct.pack("<I", 1)                  # kRequestVersion
    b += struct.pack("<i", 0)                 # attempt
    b += wstr(job_id)                         # id
    b += wstr("")                             # instance
    b += wstr("2 4\n1 2\n3 4\n")              # inlineHgr
    b += struct.pack("<i", 2)                 # k
    b += struct.pack("<d", 0.1)               # tolerance
    b += struct.pack("<d", 0.5)               # matchingRatio
    b += wstr("clip")                         # engine
    b += struct.pack("<i", 2)                 # runs
    b += struct.pack("<i", 1)                 # threads
    b += struct.pack("<i", 0)                 # vcycleThreads
    b += struct.pack("<Q", 7)                 # seed
    b += struct.pack("<d", 0.0)               # deadlineSeconds
    b += struct.pack("<i", 0)                 # priority
    b += wstr("")                             # checkpointPath
    b += bytes([0])                           # resume
    b += wstr("")                             # outPath
    b += wstr("")                             # faultSpec
    b += struct.pack("<i", 1 << 30)           # faultAttempts
    return b


def outcome(code: int = 0, cut: int = 3, deadline_hit: int = 0) -> bytes:
    """encodeJobOutcome, wire version 2."""
    b = struct.pack("<I", 2)                  # kOutcomeVersion
    b += bytes([code])                        # status code
    b += wstr("" if code == 0 else "injected")
    b += struct.pack("<q", cut)               # cut
    b += struct.pack("<i", 2)                 # runsRequested
    b += struct.pack("<i", 2)                 # runsCompleted
    b += struct.pack("<i", 0)                 # runsFailed
    b += struct.pack("<i", 0)                 # runsRetried
    b += struct.pack("<d", 0.01)              # seconds
    b += struct.pack("<I", 0xABCD1234)        # partitionCrc
    b += bytes([deadline_hit])                # deadlineHit
    b += bytes([0])                           # checkpointSaved
    b += bytes([0])                           # hasReport
    return b


FINGERPRINT = 0x1122334455667788
META = struct.pack("<Qi", 1, 4)               # seed, runs
RECORDS = struct.pack("<i", 3) + b"".join(    # run, status, attempts, cut, code, message
    struct.pack("<iBiqB", run, status, attempts, cut, code) + wstr(msg)
    for run, status, attempts, cut, code, msg in [
        (0, 0, 1, 40, 0, ""),
        (1, 0, 1, 41, 0, ""),
        (2, 2, 2, 42, 6, "injected"),         # kFailed, kInjectedFault
    ])
# bestRun, bestCut, then the io.h partition blob (k=2, 6 modules).
BEST = struct.pack("<iq", 0, 40) + blob(struct.pack("<8i", 2, 6, 0, 1, 0, 1, 0, 1))


# ---- the three formats --------------------------------------------------

def checkpoint(version: int = 2) -> bytes:
    return (frame(CKPT, 0, struct.pack("<IQ", version, FINGERPRINT))
            + frame(CKPT, 1, META) + frame(CKPT, 2, RECORDS) + frame(CKPT, 3, BEST))


def jrec(rtype: int, payload: bytes) -> bytes:
    return frame(JOURNAL, rtype, payload)


def admit(seq: int, job_id: str) -> bytes:
    return jrec(1, struct.pack("<Q", seq) + request(job_id))


def start(seq: int) -> bytes:
    return jrec(2, struct.pack("<Q", seq))


def done(seq: int, job_id: str, oc: bytes) -> bytes:
    p = struct.pack("<Q", seq)
    p += wstr(job_id)
    p += struct.pack("<i", 1)                 # attempts
    p += struct.pack("<i", 0)                 # crashes
    p += bytes([0, 0, 0])                     # watchdogKilled, retried, cached
    p += struct.pack("<d", 0.0)               # queueSeconds
    p += blob(oc)
    return jrec(3, p)


def cache_file(entries, version: int = 2) -> bytes:
    out = frame(CACHE, 0, struct.pack("<I", version))
    for fp, oc in entries:
        out += frame(CACHE, 1, struct.pack("<Q", fp) + oc)
    return out


# ---- the previous (version 1) formats, for the bad-magic fixtures -------

def checkpoint_v1() -> bytes:
    head = b"MLCK" + struct.pack("<IQI", 1, FINGERPRINT, 3)
    out = head + struct.pack("<I", crc(head))
    for tag, p in ((1, META), (2, RECORDS), (3, BEST)):
        out += struct.pack("<IQI", tag, len(p), crc(p)) + p
    return out


def journal_v1(rtype: int, payload: bytes) -> bytes:
    return b"MLJR" + struct.pack("<BII", rtype, len(payload), crc(payload)) + payload


def cache_file_v1(entries) -> bytes:
    head = b"MLRC" + struct.pack("<II", 1, len(entries))
    out = head + struct.pack("<I", crc(head))
    for fp, oc in entries:
        out += struct.pack("<QQI", fp, len(oc), crc(oc)) + oc
    return out


def main() -> None:
    outdir = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(os.path.abspath(__file__))

    def write(name: str, data: bytes) -> None:
        with open(os.path.join(outdir, name), "wb") as f:
            f.write(data)
        print(f"{name}: {len(data)} bytes")

    # ---- checkpoint fixtures --------------------------------------------
    valid = checkpoint()
    records_at = valid.index(frame(CKPT, 2, RECORDS))
    write("valid_base.ckpt", valid)
    write("zero_byte.ckpt", b"")
    write("too_short.ckpt", valid[:10])          # torn inside the first header
    write("truncated.ckpt", valid[:len(valid) // 2])
    write("bitflip_section.ckpt", flip(valid, records_at + 20 + 9, 0x10))
    write("header_crc.ckpt", flip(valid, 16, 0x10))  # header frame's CRC field
    write("wrong_version.ckpt", checkpoint(version=0xFE))
    write("bad_magic.ckpt", checkpoint_v1())

    # ---- journal fixtures -----------------------------------------------
    good = admit(1, "alpha") + start(1)
    write("journal_bad_magic.wal",
          journal_v1(1, struct.pack("<Q", 1) + request("alpha"))
          + journal_v1(2, struct.pack("<Q", 1)))
    # Unknown record type (9) after one good record.
    write("journal_bad_type.wal", good + jrec(9, b"\0" * 8))
    # Tail torn inside the 20-byte frame header.
    write("journal_torn_header.wal", good + admit(2, "beta")[:11])
    # Frame header promises more payload than the file holds.
    write("journal_torn_payload.wal", good + start(2)[:-5])
    # Payload flipped after the CRC was computed.
    write("journal_crc_mismatch.wal", good + flip(admit(2, "beta"), -1, 0xFF))
    # Declared length over the 2^28 sanity cap — must not allocate for it.
    write("journal_huge_len.wal", good + JOURNAL
          + struct.pack("<IQI", 1, 1 << 29, 0) + b"\0" * 16)
    # Done for a seq that was never admitted.
    write("journal_orphan_done.wal", good + done(99, "ghost", outcome()))
    # Frame-valid Admit whose payload is not a decodable request.
    garbage = struct.pack("<Q", 2) + b"\x07garbage-not-a-request"
    write("journal_garbage_admit.wal", good + jrec(1, garbage))

    # ---- persisted result-cache fixtures --------------------------------
    oc = outcome()
    first = cache_file([(0x1111, oc)])
    base = cache_file([(0x1111, oc), (0x2222, oc)])
    write("cache_bad_magic.bin", cache_file_v1([(0x1111, oc), (0x2222, oc)]))
    write("cache_bad_version.bin", cache_file([(0x1111, oc), (0x2222, oc)], version=9))
    write("cache_header_crc.bin", flip(base, 16, 0xFF))
    # Second entry torn mid-payload.
    write("cache_truncated_entry.bin", base[:-5])
    # Second entry's payload flipped after its CRC was computed.
    write("cache_entry_crc.bin", flip(base, -1, 0xFF))
    # Second entry's fingerprint 0x2222 rotted to 0x2223: the CRC covers it.
    write("cache_fingerprint_flip.bin", flip(base, len(first) + 20, 0x01))
    # Entry header promises an absurd payload length.
    write("cache_len_lie.bin", first + CACHE
          + struct.pack("<IQI", 1, 1 << 40, 0) + b"\0" * 8)
    # CRC-valid entries whose outcomes lie: a failed status, a negative
    # cut, a deadline-hit result — none may be served as a cache hit.
    write("cache_lying_entry.bin", cache_file([
        (0x1111, oc),
        (0x2222, outcome(code=6)),            # kInjectedFault
        (0x3333, outcome(cut=-4)),
        (0x4444, outcome(deadline_hit=1)),
    ]))


if __name__ == "__main__":
    main()

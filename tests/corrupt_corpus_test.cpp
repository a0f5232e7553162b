// Hostile-input corpus: every fixture under tests/data/corrupt must be
// rejected with a robust::Error carrying StatusCode::kParseError and a
// precise message — never accepted, never crashed on, never allocated
// for (the huge-header fixtures would OOM a reader that trusted the
// declared counts). Runs clean under ASan/UBSan.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "hypergraph/bench_format.h"
#include "hypergraph/io.h"
#include "hypergraph/netd_format.h"
#include "robust/checkpoint.h"
#include "robust/status.h"
#include "serve/journal.h"
#include "serve/result_cache.h"

namespace mlpart {
namespace {

std::string corruptPath(const std::string& name) {
    return std::string(MLPART_TEST_DATA_DIR) + "/corrupt/" + name;
}

struct CorruptCase {
    const char* file;
    const char* expectedSubstring;
};

// One entry per fixture; the substring pins the diagnostic so a future
// refactor cannot silently degrade the error message.
const CorruptCase kCases[] = {
    {"empty.hgr", "empty input"},
    {"header_negative.hgr", "negative counts"},
    {"header_huge_modules.hgr", "exceeds the 2^30 limit"},
    {"header_huge_nets.hgr", "implausible for a"},
    {"bad_fmt.hgr", "unsupported fmt code"},
    {"truncated_nets.hgr", "truncated net list"},
    {"pin_out_of_range.hgr", "pin id out of range"},
    {"net_no_pins.hgr", "net with no pins"},
    {"zero_weight.hgr", "net weight must be >= 1"},
    {"bad_module_weight.hgr", "malformed module weight"},
    {"bad_header.netD", "malformed header"},
    {"pin_count_lie.netD", "header declares 5 pins, file contains 4"},
    {"huge_pins.netD", "implausible for a"},
    {"bad_flag.netD", "pin flag must be 's' or 'l'"},
    {"first_pin_continues.netD", "first pin must start a net"},
    {"zero_modules.netD", "nonsensical header counts"},
    {"undriven.bench", "'G2' is never driven"},
    {"malformed_gate.bench", "malformed gate expression"},
    {"duplicate_def.bench", "duplicate definition of 'G1'"},
};

Hypergraph readByExtension(const std::string& path) {
    if (path.size() >= 6 && path.compare(path.size() - 6, 6, ".bench") == 0)
        return readBenchFile(path);
    if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".netD") == 0)
        return readNetDFile(path);
    return readHgrFile(path);
}

TEST(CorruptCorpus, EveryFixtureRejectedWithParseError) {
    for (const CorruptCase& c : kCases) {
        SCOPED_TRACE(c.file);
        const std::string path = corruptPath(c.file);
        bool threw = false;
        try {
            (void)readByExtension(path);
        } catch (const robust::Error& e) {
            threw = true;
            EXPECT_EQ(e.code(), robust::StatusCode::kParseError);
            EXPECT_NE(std::string(e.what()).find(c.expectedSubstring), std::string::npos)
                << "actual message: " << e.what();
        }
        EXPECT_TRUE(threw) << "fixture was accepted instead of rejected";
    }
}

// Damaged binary checkpoints: every class of corruption — torn write,
// bit rot, wrong version, foreign (or pre-upgrade 'MLCK') file, damaged
// header — must surface as a clean Error(kParseError) from
// loadCheckpoint, which the resume path turns into a fresh-start
// fallback. A crash here would turn "lost a checkpoint" into "lost the
// whole run".
const CorruptCase kCheckpointCases[] = {
    {"zero_byte.ckpt", "empty checkpoint file (zero bytes)"},
    {"truncated.ckpt", "truncated"},
    {"bitflip_section.ckpt", "CRC mismatch (bit rot or torn write)"},
    {"wrong_version.ckpt", "unsupported version"},
    {"bad_magic.ckpt", "bad magic"},
    {"header_crc.ckpt", "CRC mismatch (bit rot or torn write) at byte 0"},
    {"too_short.ckpt", "frame header truncated"},
};

TEST(CorruptCorpus, EveryCheckpointFixtureRejectedWithParseError) {
    for (const CorruptCase& c : kCheckpointCases) {
        SCOPED_TRACE(c.file);
        bool threw = false;
        try {
            (void)robust::loadCheckpoint(corruptPath(c.file));
        } catch (const robust::Error& e) {
            threw = true;
            EXPECT_EQ(e.code(), robust::StatusCode::kParseError);
            EXPECT_NE(std::string(e.what()).find(c.expectedSubstring), std::string::npos)
                << "actual message: " << e.what();
        }
        EXPECT_TRUE(threw) << "fixture was accepted instead of rejected";
    }
}

// The base fixture is intact; what is stale is the caller's expectation.
// 0 means "don't verify" and must accept the same file.
TEST(CorruptCorpus, StaleCheckpointFingerprintRejected) {
    const std::string path = corruptPath("valid_base.ckpt");
    EXPECT_NO_THROW((void)robust::loadCheckpoint(path));
    EXPECT_NO_THROW((void)robust::loadCheckpoint(path, 0x1122334455667788ULL));
    try {
        (void)robust::loadCheckpoint(path, 0xDEADBEEFULL);
        FAIL() << "stale fingerprint was accepted";
    } catch (const robust::Error& e) {
        EXPECT_EQ(e.code(), robust::StatusCode::kParseError);
        EXPECT_NE(std::string(e.what()).find("stale config fingerprint"), std::string::npos);
    }
}

// robust::Error derives from std::runtime_error, so pre-taxonomy call
// sites that catch the standard hierarchy still see reader failures.
TEST(CorruptCorpus, ErrorsRemainCatchableAsRuntimeError) {
    EXPECT_THROW((void)readHgrFile(corruptPath("empty.hgr")), std::runtime_error);
    EXPECT_THROW((void)readNetDFile(corruptPath("bad_flag.netD")), std::runtime_error);
    EXPECT_THROW((void)readBenchFile(corruptPath("undriven.bench")), std::runtime_error);
}

// Damaged write-ahead journals (DESIGN.md §16). Unlike the readers
// above, Journal::recover must NOT throw: the contract is
// truncate-and-continue — drop the damaged tail, keep every record in
// front of it, and come back up serving. Each fixture holds one good
// Admit+Start for job "alpha" followed by one damage class; the
// exception is journal_bad_magic.wal, a valid journal in the previous
// format, whose very first frame is foreign so recovery keeps nothing. recover() truncates the file in place, so
// every fixture is copied into a scratch state dir first.
struct JournalCase {
    const char* file;
    int expectedPending; ///< jobs surviving in front of the damage
};

const JournalCase kJournalCases[] = {
    {"journal_bad_magic.wal", 0},     // pre-upgrade 'MLJR' journal: foreign
    {"journal_bad_type.wal", 1},      // unknown record type 9
    {"journal_torn_header.wal", 1},   // tail torn inside the 20-byte frame
    {"journal_torn_payload.wal", 1},  // frame promises bytes the file lacks
    {"journal_crc_mismatch.wal", 1},  // payload flipped after CRC
    {"journal_huge_len.wal", 1},      // declared length over the 2^28 cap
    {"journal_orphan_done.wal", 1},   // Done for a never-admitted seq
    {"journal_garbage_admit.wal", 1}, // frame-valid, undecodable request
};

std::string journalScratchDir() {
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "mlpart_corrupt_journal";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

TEST(CorruptCorpus, EveryJournalFixtureRecoversByTruncation) {
    for (const JournalCase& c : kJournalCases) {
        SCOPED_TRACE(c.file);
        const std::string dir = journalScratchDir();
        const std::string wal = dir + "/journal.wal";
        std::filesystem::copy_file(corruptPath(c.file), wal);
        const auto originalSize =
            static_cast<std::int64_t>(std::filesystem::file_size(wal));

        serve::Journal::Recovery rec;
        {
            serve::Journal journal(dir);
            ASSERT_NO_THROW(rec = journal.recover());
        }
        EXPECT_FALSE(rec.unreadable);
        EXPECT_GT(rec.truncatedBytes, 0);
        EXPECT_EQ(static_cast<int>(rec.pending.size()), c.expectedPending);
        EXPECT_TRUE(rec.completed.empty());
        if (c.expectedPending == 1) {
            EXPECT_EQ(rec.pending[0].req.id, "alpha");
            EXPECT_TRUE(rec.pending[0].started);
        }
        // The damage is physically gone from disk...
        const auto survivingSize =
            static_cast<std::int64_t>(std::filesystem::file_size(wal));
        EXPECT_EQ(survivingSize + rec.truncatedBytes, originalSize);
        // ...so a second recovery sees a clean journal: same plan, no
        // further truncation. This is what makes a crash *during*
        // recovery safe to retry.
        serve::Journal again(dir);
        const serve::Journal::Recovery rec2 = again.recover();
        EXPECT_EQ(rec2.truncatedBytes, 0);
        EXPECT_EQ(rec2.pending.size(), rec.pending.size());
    }
}

// Damaged persisted result caches. loadFromFile never throws: header
// damage drops the whole file, entries load up to the first damaged
// frame (no length field can be trusted past it; a CRC-damaged entry
// counts as rejected, a torn tail does not), and CRC-valid entries whose
// outcomes lie (failed status, negative cut, deadline-hit) are refused
// so a rotten snapshot can never be served as a cache hit.
struct CacheCase {
    const char* file;
    int expectedLoaded;
    std::int64_t expectedRejected;
};

const CacheCase kCacheCases[] = {
    {"cache_bad_magic.bin", 0, 0},       // pre-upgrade 'MLRC' cache: foreign
    {"cache_bad_version.bin", 0, 0},     // format from the future
    {"cache_header_crc.bin", 0, 0},      // header bit rot
    {"cache_truncated_entry.bin", 1, 0}, // torn tail: keep the front
    {"cache_entry_crc.bin", 1, 1},       // one entry bit-rotten
    {"cache_fingerprint_flip.bin", 1, 1}, // 0x2222 rotted to 0x2223
    {"cache_len_lie.bin", 1, 0},         // absurd declared entry length
    {"cache_lying_entry.bin", 1, 3},     // CRC-valid but implausible
};

TEST(CorruptCorpus, EveryCacheFixtureLoadsOnlyTrustworthyEntries) {
    for (const CacheCase& c : kCacheCases) {
        SCOPED_TRACE(c.file);
        serve::ResultCache cache(16);
        int loaded = -1;
        ASSERT_NO_THROW(loaded = cache.loadFromFile(corruptPath(c.file)));
        EXPECT_EQ(loaded, c.expectedLoaded);
        EXPECT_EQ(cache.stats().loadRejected, c.expectedRejected);
        // Whatever survived must actually be servable.
        serve::JobOutcome out;
        if (c.expectedLoaded >= 1) {
            EXPECT_TRUE(cache.lookup(0x1111, out));
            EXPECT_TRUE(out.status.ok());
            EXPECT_EQ(out.cut, 3);
        }
        // The damaged / lying entries must never surface: in every
        // fixture the 0x2222+ fingerprints carry the corruption.
        EXPECT_FALSE(cache.lookup(0x2222, out));
        EXPECT_FALSE(cache.lookup(0x2223, out));
        EXPECT_FALSE(cache.lookup(0x3333, out));
        EXPECT_FALSE(cache.lookup(0x4444, out));
    }
}

// The size-hint cap must not reject legitimate streams where no hint is
// available (stream overload, hint = -1): only the absolute 2^30 cap
// applies there.
TEST(CorruptCorpus, StreamReaderWithoutHintStillAppliesAbsoluteCap) {
    {
        std::istringstream in("2 999999999999\n1 2\n1 2\n");
        EXPECT_THROW((void)readHgr(in), robust::Error);
    }
    {
        // Huge-but-under-2^30 counts pass the header without a hint and
        // fail later on truncation — proving the plausibility cap is
        // hint-gated rather than guessing at stream sizes.
        std::istringstream in("999999999 4\n1 2\n");
        try {
            (void)readHgr(in);
            FAIL() << "expected a parse error";
        } catch (const robust::Error& e) {
            EXPECT_NE(std::string(e.what()).find("truncated net list"), std::string::npos);
        }
    }
}

} // namespace
} // namespace mlpart

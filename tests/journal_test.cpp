// Tests for the write-ahead job journal (DESIGN.md §16): record framing,
// admission/start/completion round-trips, torn-tail truncation, orphan
// and duplicate record semantics, compaction, and degraded non-durable
// mode under every injected fs.* fault site.
#include <gtest/gtest.h>

#if !defined(_WIN32)

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "robust/fault_injector.h"
#include "robust/status.h"
#include "serve/journal.h"

namespace mlpart::serve {
namespace {

using robust::FaultInjector;
using robust::FaultPlan;

struct InjectorGuard {
    ~InjectorGuard() { FaultInjector::instance().disarm(); }
};

/// A fresh state dir per test so journals never bleed across tests.
std::string freshStateDir(const std::string& name) {
    const std::string dir = ::testing::TempDir() + "mlpart_journal_" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

JobRequest sampleRequest(const std::string& id, std::int32_t priority = 0) {
    JobRequest r;
    r.id = id;
    r.inlineHgr = "2 4\n1 2\n3 4\n";
    r.runs = 2;
    r.seed = 7;
    r.priority = priority;
    return r;
}

JobResult sampleResult(const std::string& id) {
    JobResult r;
    r.id = id;
    r.outcome.status = robust::Status::okStatus();
    r.outcome.cut = 3;
    r.outcome.runsOk = 2;
    r.outcome.partitionCrc = 0xABCDEF01u;
    r.attempts = 1;
    r.queueSeconds = 0.25;
    return r;
}

std::int64_t fileSize(const std::string& path) {
    struct stat st {};
    return ::stat(path.c_str(), &st) == 0 ? static_cast<std::int64_t>(st.st_size) : -1;
}

TEST(Journal, FreshDirectoryRecoversToNothing) {
    const std::string dir = freshStateDir("fresh");
    Journal j(dir);
    const Journal::Recovery rec = j.recover();
    EXPECT_TRUE(rec.pending.empty());
    EXPECT_TRUE(rec.completed.empty());
    EXPECT_EQ(rec.maxSeq, 0u);
    EXPECT_EQ(rec.truncatedBytes, 0);
    EXPECT_FALSE(rec.unreadable);
    EXPECT_FALSE(j.degraded());
}

TEST(Journal, AdmitStartDoneRoundTripsAcrossRestart) {
    const std::string dir = freshStateDir("roundtrip");
    {
        Journal j(dir);
        (void)j.recover();
        ASSERT_TRUE(j.appendAdmit(1, sampleRequest("a")).ok());
        ASSERT_TRUE(j.appendStart(1).ok());
        ASSERT_TRUE(j.appendDone(1, sampleResult("a")).ok());
        ASSERT_TRUE(j.appendAdmit(2, sampleRequest("b", 5)).ok());
        ASSERT_TRUE(j.appendStart(2).ok());
        ASSERT_TRUE(j.appendAdmit(3, sampleRequest("c")).ok());
    }
    Journal j2(dir);
    const Journal::Recovery rec = j2.recover();
    EXPECT_EQ(rec.maxSeq, 3u);

    // Job 1 completed: its full result is replayable, byte-relevant fields
    // included — the restart re-emits it, never re-runs it.
    ASSERT_EQ(rec.completed.size(), 1u);
    EXPECT_EQ(rec.completed[0].id, "a");
    EXPECT_EQ(rec.completed[0].outcome.cut, 3);
    EXPECT_EQ(rec.completed[0].outcome.partitionCrc, 0xABCDEF01u);
    EXPECT_EQ(rec.completed[0].attempts, 1);
    EXPECT_DOUBLE_EQ(rec.completed[0].queueSeconds, 0.25);

    // Jobs 2 (started) and 3 (only admitted) are both pending, in
    // admission order, with priority preserved for re-admission.
    ASSERT_EQ(rec.pending.size(), 2u);
    EXPECT_EQ(rec.pending[0].seq, 2u);
    EXPECT_TRUE(rec.pending[0].started);
    EXPECT_EQ(rec.pending[0].req.id, "b");
    EXPECT_EQ(rec.pending[0].req.priority, 5);
    EXPECT_EQ(rec.pending[1].seq, 3u);
    EXPECT_FALSE(rec.pending[1].started);
    EXPECT_EQ(rec.pending[1].req.inlineHgr, sampleRequest("c").inlineHgr);
}

TEST(Journal, DroppedJobsAreNeverRecovered) {
    const std::string dir = freshStateDir("drop");
    {
        Journal j(dir);
        (void)j.recover();
        ASSERT_TRUE(j.appendAdmit(1, sampleRequest("keep")).ok());
        ASSERT_TRUE(j.appendAdmit(2, sampleRequest("shed")).ok());
        ASSERT_TRUE(j.appendDrop(2).ok());
    }
    Journal j2(dir);
    const Journal::Recovery rec = j2.recover();
    ASSERT_EQ(rec.pending.size(), 1u);
    EXPECT_EQ(rec.pending[0].req.id, "keep");
    EXPECT_TRUE(rec.completed.empty());
}

TEST(Journal, DuplicateAdmitDedupesBySeqSoRecoveryCannotDoubleExecute) {
    const std::string dir = freshStateDir("dedupe");
    {
        Journal j(dir);
        (void)j.recover();
        // Exactly what a crash during recovery re-admission leaves behind:
        // the same job journaled twice under its original seq.
        ASSERT_TRUE(j.appendAdmit(4, sampleRequest("again")).ok());
        ASSERT_TRUE(j.appendAdmit(4, sampleRequest("again")).ok());
    }
    Journal j2(dir);
    const Journal::Recovery rec = j2.recover();
    ASSERT_EQ(rec.pending.size(), 1u);
    EXPECT_EQ(rec.pending[0].seq, 4u);
}

TEST(Journal, TornTailIsTruncatedAndEarlierRecordsSurvive) {
    const std::string dir = freshStateDir("torn");
    {
        Journal j(dir);
        (void)j.recover();
        ASSERT_TRUE(j.appendAdmit(1, sampleRequest("whole")).ok());
    }
    const std::string wal = dir + "/journal.wal";
    const std::int64_t goodSize = fileSize(wal);
    ASSERT_GT(goodSize, 0);
    {
        // A crash mid-append: the record header lands, the payload does not.
        std::ofstream out(wal, std::ios::binary | std::ios::app);
        const char tear[] = {'M', 'L', 'J', '2', 1, 0, 0, 0, 40};
        out.write(tear, sizeof(tear));
    }
    Journal j2(dir);
    const Journal::Recovery rec = j2.recover();
    EXPECT_GT(rec.truncatedBytes, 0);
    ASSERT_EQ(rec.pending.size(), 1u);
    EXPECT_EQ(rec.pending[0].req.id, "whole");
    // The tear is gone from disk: a third open sees a clean journal.
    EXPECT_EQ(fileSize(wal), goodSize);
}

TEST(Journal, OrphanCompletionTruncatesAtTheLastGoodBoundary) {
    const std::string dir = freshStateDir("orphan");
    {
        Journal j(dir);
        (void)j.recover();
        ASSERT_TRUE(j.appendAdmit(1, sampleRequest("live")).ok());
        // A Done for a seq that was never admitted is semantic corruption:
        // the appender does not police it (its live set already dropped
        // the seq), the scanner must.
        ASSERT_TRUE(j.appendDone(99, sampleResult("ghost")).ok());
        ASSERT_TRUE(j.appendAdmit(2, sampleRequest("after")).ok());
    }
    Journal j2(dir);
    const Journal::Recovery rec = j2.recover();
    // Everything from the orphan record on is dropped; the admitted job
    // before it survives.
    EXPECT_GT(rec.truncatedBytes, 0);
    EXPECT_TRUE(rec.completed.empty());
    ASSERT_EQ(rec.pending.size(), 1u);
    EXPECT_EQ(rec.pending[0].req.id, "live");
}

TEST(Journal, CompactionShrinksTheFileAndKeepsOutstandingJobs) {
    const std::string dir = freshStateDir("compact");
    const std::string wal = dir + "/journal.wal";
    Journal j(dir);
    (void)j.recover();
    for (std::uint64_t s = 1; s <= 8; ++s)
        ASSERT_TRUE(j.appendAdmit(s, sampleRequest("j" + std::to_string(s))).ok());
    for (std::uint64_t s = 1; s <= 7; ++s) {
        ASSERT_TRUE(j.appendStart(s).ok());
        ASSERT_TRUE(j.appendDone(s, sampleResult("j" + std::to_string(s))).ok());
    }
    const std::int64_t before = fileSize(wal);
    ASSERT_TRUE(j.compact().ok());
    EXPECT_GT(j.compactions(), 0);
    EXPECT_LT(fileSize(wal), before);

    Journal j2(dir);
    const Journal::Recovery rec = j2.recover();
    // Compaction consumed the Done records (their results were already
    // delivered) and kept only the outstanding job.
    EXPECT_TRUE(rec.completed.empty());
    ASSERT_EQ(rec.pending.size(), 1u);
    EXPECT_EQ(rec.pending[0].req.id, "j8");
    EXPECT_EQ(rec.pending[0].seq, 8u);
}

TEST(Journal, AutomaticCompactionKicksInAfterEnoughCompletions) {
    const std::string dir = freshStateDir("autocompact");
    Journal j(dir);
    (void)j.recover();
    for (int round = 0; round < Journal::kCompactEveryDones + 2; ++round) {
        const auto seq = static_cast<std::uint64_t>(round + 1);
        ASSERT_TRUE(j.appendAdmit(seq, sampleRequest("r" + std::to_string(round))).ok());
        ASSERT_TRUE(j.appendDone(seq, sampleResult("r" + std::to_string(round))).ok());
    }
    EXPECT_GE(j.compactions(), 1);
}

TEST(Journal, AppendsStillWorkAfterCompaction) {
    const std::string dir = freshStateDir("append_after_compact");
    Journal j(dir);
    (void)j.recover();
    ASSERT_TRUE(j.appendAdmit(1, sampleRequest("a")).ok());
    ASSERT_TRUE(j.compact().ok());
    // The fd was swapped under the compaction rename; the next append must
    // land in the *new* file.
    ASSERT_TRUE(j.appendAdmit(2, sampleRequest("b")).ok());
    Journal j2(dir);
    const Journal::Recovery rec = j2.recover();
    EXPECT_EQ(rec.pending.size(), 2u);
}

// ------------------------------------------------------ fs.* fault sites

TEST(Journal, EveryInjectedWriteFaultDegradesToNonDurableNotDead) {
    for (const std::string site : {"fs.write.enospc", "fs.write.short", "fs.fsync"}) {
        SCOPED_TRACE(site);
        const std::string dir = freshStateDir("fault_" + site.substr(3));
        InjectorGuard guard;
        Journal j(dir);
        (void)j.recover();
        ASSERT_TRUE(j.appendAdmit(1, sampleRequest("pre")).ok());

        FaultPlan plan;
        plan.site = site;
        plan.fireAtHit = 1;
        plan.maxFires = 1;
        FaultInjector::instance().arm(plan);
        const robust::Status st = j.appendAdmit(2, sampleRequest("hit"));
        FaultInjector::instance().disarm();

        EXPECT_FALSE(st.ok()) << "the injected failure must be reported once";
        EXPECT_NE(st.message.find(site), std::string::npos) << st.message;
        EXPECT_TRUE(j.degraded());
        // Degraded mode: later appends are silent no-ops, never errors —
        // losing durability must not lose the service.
        EXPECT_TRUE(j.appendAdmit(3, sampleRequest("post")).ok());
        EXPECT_TRUE(j.appendDone(3, sampleResult("post")).ok());

        // Whatever the failed append left behind (nothing for enospc, a
        // torn record for short/fsync), the next recovery copes: the
        // pre-fault record survives, nothing crashes.
        Journal j2(dir);
        const Journal::Recovery rec = j2.recover();
        ASSERT_GE(rec.pending.size(), 1u);
        EXPECT_EQ(rec.pending[0].req.id, "pre");
    }
}

TEST(Journal, InjectedReadErrorDegradesToEmptyRecoveryNotACrash) {
    const std::string dir = freshStateDir("eio");
    {
        Journal j(dir);
        (void)j.recover();
        ASSERT_TRUE(j.appendAdmit(1, sampleRequest("lost")).ok());
    }
    InjectorGuard guard;
    FaultPlan plan;
    plan.site = "fs.read.eio";
    plan.fireAtHit = 1;
    plan.maxFires = 1;
    FaultInjector::instance().arm(plan);
    Journal j2(dir);
    const Journal::Recovery rec = j2.recover();
    FaultInjector::instance().disarm();
    EXPECT_TRUE(rec.unreadable);
    EXPECT_TRUE(rec.pending.empty());
    EXPECT_TRUE(rec.completed.empty());
    // The unreadable content was discarded; the journal starts over and
    // keeps accepting appends.
    EXPECT_TRUE(j2.appendAdmit(1, sampleRequest("fresh")).ok());
    Journal j3(dir);
    EXPECT_EQ(j3.recover().pending.size(), 1u);
}

TEST(Journal, WildcardFsSiteArmsEveryShimFaultInOnePlan) {
    // site=fs.* with probability 1 fires at the *first* shim gate touched
    // by any durable write — the documented one-knob way to exercise the
    // whole family (§16). The journal must degrade, not die.
    const std::string dir = freshStateDir("wildcard");
    InjectorGuard guard;
    Journal j(dir);
    (void)j.recover();
    FaultPlan plan;
    plan.site = "fs.*";
    plan.probability = 1.0;
    FaultInjector::instance().arm(plan);
    const robust::Status st = j.appendAdmit(1, sampleRequest("w"));
    FaultInjector::instance().disarm();
    EXPECT_FALSE(st.ok());
    EXPECT_GE(FaultInjector::instance().fires(), 1);
    EXPECT_TRUE(j.degraded());
}

} // namespace
} // namespace mlpart::serve

#else
TEST(Journal, PosixOnly) { GTEST_SKIP() << "journal is POSIX-only"; }
#endif

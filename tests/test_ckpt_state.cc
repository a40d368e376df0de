/**
 * @file
 * State-equivalence harness for microarchitectural snapshots
 * (WarmableComponent::snapshotState / restoreState, isa/snapshot.hh).
 *
 * The contract pinned here is the foundation of the warm-once sampling
 * path (sim/sample/): for every warmable component, warming K µ-ops,
 * serializing, and restoring into a *fresh, differently-seeded*
 * instance must leave that instance decision-for-decision identical to
 * the never-serialized original over the next ~10k predictions or
 * accesses — the PR 1 golden-record trick applied to state round
 * trips. Snapshots must also be byte-stable (restore → re-serialize
 * reproduces the exact bytes), and corrupted or truncated documents
 * must die with section- and line-numbered diagnostics, never UB.
 */

#include <gtest/gtest.h>

#include <deque>
#include <sstream>
#include <string>
#include <vector>

#include "bpred/branch_unit.hh"
#include "common/env.hh"
#include "common/hash.hh"
#include "isa/checkpoint.hh"
#include "mem/hierarchy.hh"
#include "vpred/value_predictor.hh"
#include "workloads/torture_gen.hh"
#include "workloads/workload.hh"

using namespace eole;
using workloads::generateTortureProgram;
using workloads::tortureMemBytes;

namespace {

std::shared_ptr<const FrozenTrace>
tortureTrace(std::uint64_t seed)
{
    Workload w;
    w.name = "torture-" + std::to_string(seed);
    w.memBytes = tortureMemBytes;
    w.program = generateTortureProgram(seed);
    auto trace = w.freeze(1u << 21);
    EXPECT_TRUE(trace->complete);
    return trace;
}

template <typename Component>
std::string
snapshotOf(const Component &c)
{
    std::ostringstream os;
    c.snapshotState(os);
    return os.str();
}

template <typename Component>
void
restoreFrom(Component &c, const std::string &bytes)
{
    std::istringstream is(bytes);
    c.restoreState(is);
}

} // namespace

// ========================== BranchUnit ===================================

TEST(CkptState, BranchUnitRoundTripIsDecisionIdentical)
{
    const std::uint64_t base = envU64("EOLE_SAMPLE_SEED", 0x5A3) + 3000;
    std::size_t compared = 0;
    for (std::uint64_t r = 0; r < 12 && compared < 10000; ++r) {
        const auto trace = tortureTrace(base + r);
        const BpConfig bp;

        // The reference unit warms and is never serialized; the fresh
        // unit starts from a DIFFERENT seed (its RNG state must come
        // from the snapshot, not from construction).
        BranchUnit ref(bp, {}, 0xAAAA);
        const std::size_t warm_len = trace->uops.size() / 2;
        for (std::size_t i = 0; i < warm_len; ++i)
            ref.warmUpdate(trace->uops[i]);

        const std::string bytes = snapshotOf(ref);
        BranchUnit fresh(bp, {}, 0xBBBB);
        restoreFrom(fresh, bytes);

        // Byte stability: re-serializing the restored unit reproduces
        // the exact snapshot.
        EXPECT_EQ(snapshotOf(fresh), bytes);

        // Decision-for-decision identical continuation through the
        // full pipeline-path API (predict -> repair -> commit).
        for (std::size_t i = warm_len;
             i < trace->uops.size() && compared < 10000; ++i) {
            const TraceUop &u = trace->uops[i];
            if (!u.isBranch())
                continue;
            ++compared;
            BranchUnit::SnapshotPtr pa, pb;
            const BranchPrediction a = ref.predictBranch(u, pa);
            const BranchPrediction b = fresh.predictBranch(u, pb);
            ASSERT_EQ(a.predTaken, b.predTaken) << "µ-op " << i;
            ASSERT_EQ(a.predTarget, b.predTarget) << "µ-op " << i;
            ASSERT_EQ(a.highConf, b.highConf) << "µ-op " << i;
            ASSERT_EQ(a.mispredict, b.mispredict) << "µ-op " << i;
            if (a.mispredict) {
                ref.repairAfterBranch(u, pa);
                fresh.repairAfterBranch(u, pb);
            }
            ref.commitBranch(u, a);
            fresh.commitBranch(u, b);
        }
    }
    EXPECT_GT(compared, 200u);
}

// ======================== ValuePredictor =================================

TEST(CkptState, ValuePredictorRoundTripsEveryKind)
{
    const std::uint64_t base = envU64("EOLE_SAMPLE_SEED", 0x5A3) + 4000;
    const VpKind kinds[] = {
        VpKind::LastValue,     VpKind::Stride,
        VpKind::TwoDeltaStride, VpKind::Vtage,
        VpKind::Fcm,            VpKind::HybridVtage2DStride,
    };

    for (const VpKind kind : kinds) {
        VpConfig vcfg;
        vcfg.kind = kind;
        auto ref = createValuePredictor(vcfg, 0x1111);
        auto fresh = createValuePredictor(vcfg, 0x2222);
        ASSERT_NE(ref, nullptr);

        // History-indexed predictors ride the branch unit's history,
        // exactly as PipelineState wires them; both instances bind to
        // the same (shared) history so only table/RNG state differs.
        const BpConfig bp;
        BranchUnit bu(bp, ref->foldSpecs(), 0x3333);
        ref->bindHistory(bu.history(), bu.extraFoldBase());
        fresh->bindHistory(bu.history(), bu.extraFoldBase());

        const auto trace = tortureTrace(base);
        const std::size_t warm_len = trace->uops.size() / 2;
        for (std::size_t i = 0; i < warm_len; ++i) {
            bu.warmUpdate(trace->uops[i]);
            ref->warmUpdate(trace->uops[i]);
        }

        const std::string bytes = snapshotOf(*ref);
        restoreFrom(*fresh, bytes);
        EXPECT_EQ(snapshotOf(*fresh), bytes) << ref->name();

        std::size_t compared = 0;
        for (std::size_t i = warm_len;
             i < trace->uops.size() && compared < 10000; ++i) {
            const TraceUop &u = trace->uops[i];
            bu.warmUpdate(u);  // advance the shared history
            if (!u.vpPredictable())
                continue;
            ++compared;
            const VpLookup a = ref->predict(u.pc);
            const VpLookup b = fresh->predict(u.pc);
            ASSERT_EQ(a.predictionMade, b.predictionMade)
                << ref->name() << " µ-op " << i;
            ASSERT_EQ(a.value, b.value)
                << ref->name() << " µ-op " << i;
            ASSERT_EQ(a.confident, b.confident)
                << ref->name() << " µ-op " << i;
            ref->commit(u.pc, u.result, a);
            fresh->commit(u.pc, u.result, b);
        }
        EXPECT_GT(compared, 100u) << ref->name();

        // The two streams trained identically: states stay equal.
        EXPECT_EQ(snapshotOf(*ref), snapshotOf(*fresh)) << ref->name();
    }
}

namespace {

/** snapshotState of a @p kind predictor after a fixed pipeline-path
 *  stream: eight torture traces' VP-eligible µ-ops with up to three
 *  instances in flight, every seventh retired instance squashed
 *  instead of committed. The seed is fixed (not EOLE_SAMPLE_SEED):
 *  the digest is a golden constant. */
std::string
trainedSnapshot(VpKind kind)
{
    VpConfig vcfg;
    vcfg.kind = kind;
    auto vp = createValuePredictor(vcfg, 0x7a6e);
    const BpConfig bp;
    BranchUnit bu(bp, vp->foldSpecs(), 0x3333);
    vp->bindHistory(bu.history(), bu.extraFoldBase());

    struct InFlight
    {
        const TraceUop *uop;
        VpLookup lookup;
    };
    std::deque<InFlight> inflight;
    std::size_t retired = 0;
    auto retireOldest = [&] {
        const InFlight &f = inflight.front();
        if (++retired % 7 == 0)
            vp->squash(f.uop->pc, f.lookup);
        else
            vp->commit(f.uop->pc, f.uop->result, f.lookup);
        inflight.pop_front();
    };

    for (std::uint64_t seed = 0x60de; seed < 0x60de + 8; ++seed) {
        const auto trace = tortureTrace(seed);
        for (const TraceUop &u : trace->uops) {
            bu.warmUpdate(u);
            if (!u.vpPredictable())
                continue;
            inflight.push_back({&u, vp->predict(u.pc)});
            if (inflight.size() > 3)
                retireOldest();
        }
        while (!inflight.empty())
            retireOldest();
    }
    return snapshotOf(*vp);
}

} // namespace

TEST(CkptState, VtageAndHybridSnapshotBytesArePinned)
{
    // Golden digests of the serialized tables: any change to the
    // training decisions or to the order in which the tables are
    // written (the vtage.comp lines above all) changes these, and
    // would make existing eole-ckpt-v2 files restore differently.
    EXPECT_EQ(sha256Hex(trainedSnapshot(VpKind::Vtage)),
              "490fec15dfbdd0e3e565aedf1e97f230"
              "87250030ee52ddf3d1286241ebad1b13");
    EXPECT_EQ(sha256Hex(trainedSnapshot(VpKind::HybridVtage2DStride)),
              "495adbce0221972a86778dc89f6cd2e4"
              "f33ee8da34f88d98b912563ae1fa4803");
}

// ========================= MemHierarchy ==================================

TEST(CkptState, MemHierarchyRoundTripIsDecisionIdentical)
{
    const std::uint64_t base = envU64("EOLE_SAMPLE_SEED", 0x5A3) + 5000;
    std::size_t compared = 0;
    for (std::uint64_t r = 0; r < 10 && compared < 10000; ++r) {
        const auto trace = tortureTrace(base + r);
        const MemConfig mcfg;
        MemHierarchy ref(mcfg);
        const std::size_t warm_len = trace->uops.size() / 2;
        for (std::size_t i = 0; i < warm_len; ++i)
            ref.warmUpdate(trace->uops[i]);

        const std::string bytes = snapshotOf(ref);
        MemHierarchy fresh(mcfg);
        restoreFrom(fresh, bytes);
        EXPECT_EQ(snapshotOf(fresh), bytes);
        EXPECT_EQ(fresh.warmClockNow(), ref.warmClockNow());

        // Paired demand accesses must see identical hit/miss/fill
        // behaviour — the returned availability cycle is the complete
        // decision (tags, LRU, MSHRs, DRAM rows, bus and prefetcher
        // effects included).
        Cycle now = ref.warmClockNow();
        for (std::size_t i = warm_len;
             i < trace->uops.size() && compared < 10000; ++i) {
            const TraceUop &u = trace->uops[i];
            ++now;
            ASSERT_EQ(ref.fetchAccess(u.pc, now),
                      fresh.fetchAccess(u.pc, now)) << "µ-op " << i;
            if (u.isLoad()) {
                ++compared;
                ASSERT_EQ(ref.loadAccess(u.pc, u.effAddr, now),
                          fresh.loadAccess(u.pc, u.effAddr, now))
                    << "µ-op " << i;
            } else if (u.isStore()) {
                ++compared;
                ASSERT_EQ(ref.storeAccess(u.pc, u.effAddr, now),
                          fresh.storeAccess(u.pc, u.effAddr, now))
                    << "µ-op " << i;
            }
        }
        EXPECT_EQ(snapshotOf(ref), snapshotOf(fresh));
    }
    EXPECT_GT(compared, 500u);
}

// ==================== Corruption diagnostics =============================

TEST(CkptState, CorruptedSnapshotsDieWithSectionAndLineNumbers)
{
    const auto trace = tortureTrace(0xDEAD);
    const BpConfig bp;
    BranchUnit ref(bp, {}, 0xAAAA);
    for (std::size_t i = 0; i < trace->uops.size() / 2; ++i)
        ref.warmUpdate(trace->uops[i]);
    const std::string bytes = snapshotOf(ref);

    // Truncated mid-document: the diagnostic names the section and a
    // line number.
    {
        BranchUnit fresh(bp, {}, 0xBBBB);
        const std::string cut = bytes.substr(0, bytes.size() / 2);
        EXPECT_DEATH(restoreFrom(fresh, cut), "snapshot line [0-9]+");
    }
    // Corrupted tag word.
    {
        BranchUnit fresh(bp, {}, 0xBBBB);
        std::string bad = bytes;
        const std::size_t at = bad.find("tage.base");
        ASSERT_NE(at, std::string::npos);
        bad.replace(at, 9, "tage.bose");
        EXPECT_DEATH(restoreFrom(fresh, bad),
                     "branch-unit snapshot line [0-9]+.*expected tag");
    }
    // Geometry mismatch: a snapshot from a differently-shaped unit.
    {
        BpConfig small = bp;
        small.btbLog2Entries = 8;
        BranchUnit fresh(small, {}, 0xBBBB);
        EXPECT_DEATH(restoreFrom(fresh, bytes), "mismatch");
    }
    // Memory hierarchy: truncation is just as loud.
    {
        MemHierarchy m;
        for (std::size_t i = 0; i < 2000; ++i)
            m.warmUpdate(trace->uops[i]);
        const std::string mbytes = snapshotOf(m);
        MemHierarchy fresh;
        EXPECT_DEATH(restoreFrom(fresh, mbytes.substr(0, 100)),
                     "snapshot line [0-9]+");
    }
}

// ===================== Checkpoint integration ============================

TEST(CkptState, V2CheckpointCarriesAndRestoresEveryComponent)
{
    // The checkpoint layer must frame component snapshots without
    // perturbing a single byte: capture -> serialize -> parse gives
    // back identical sections, and the v1 path stays section-free.
    const auto trace = tortureTrace(0xF00D);
    Checkpoint ckpt = captureAt(*trace, "torture", trace->uops.size() / 2);
    EXPECT_FALSE(ckpt.hasWarmState());
    const std::string v1 = checkpointString(ckpt);
    EXPECT_NE(v1.find("eole-ckpt-v1"), std::string::npos);

    ckpt.config = "some config";
    ckpt.uarch.emplace_back("branch", "branch-unit 1\npayload x\n");
    ckpt.uarch.emplace_back("mem", "mem-hierarchy 1\n");
    const std::string v2 = checkpointString(ckpt);
    EXPECT_NE(v2.find("eole-ckpt-v2"), std::string::npos);

    const Checkpoint back = checkpointFromString(v2);
    EXPECT_TRUE(back == ckpt);
    EXPECT_EQ(checkpointString(back), v2);

    // Corrupt the section byte count: line-numbered rejection through
    // the non-fatal API.
    std::string bad = v2;
    const std::size_t at = bad.find("section branch ");
    ASSERT_NE(at, std::string::npos);
    bad.insert(at + 15, "9999");
    Checkpoint out;
    std::string err;
    std::istringstream is(bad);
    EXPECT_FALSE(tryDeserializeCheckpoint(is, &out, &err));
    EXPECT_NE(err.find("line"), std::string::npos) << err;
}

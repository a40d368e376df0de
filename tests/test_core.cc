/**
 * @file
 * Integration tests for the out-of-order core (without EOLE): IPC
 * properties on known traces, branch misprediction costs, memory
 * disambiguation, store-to-load forwarding and the lockstep oracle
 * under squashes. Every run implicitly verifies the oracle check
 * (the core panics on any committed-value mismatch).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "isa/assembler.hh"
#include "pipeline/core.hh"
#include "sim/configs.hh"
#include "workloads/workload.hh"

using namespace eole;

namespace {

CoreStats
runWorkload(const SimConfig &cfg, const Workload &w, std::uint64_t uops)
{
    Core core(cfg, w);
    core.run(uops, uops * 200 + 100000);
    return core.stats();
}

} // namespace

TEST(CoreBaseline, DependencyChainBoundsIpcToOne)
{
    const CoreStats s = runWorkload(configs::baseline(6, 64),
                                    workloads::micro::depChain(), 60000);
    EXPECT_GT(s.ipc(), 0.9);
    EXPECT_LT(s.ipc(), 1.15);
}

TEST(CoreBaseline, IndependentStreamReachesIssueWidth)
{
    const CoreStats s = runWorkload(configs::baseline(6, 64),
                                    workloads::micro::independent(),
                                    60000);
    // 16 independent chains + a jmp: sustained IPC near the 6-wide
    // issue limit.
    EXPECT_GT(s.ipc(), 5.0);
    EXPECT_LE(s.ipc(), 6.2);
}

TEST(CoreBaseline, IssueWidthScalesThroughput)
{
    const CoreStats s4 = runWorkload(configs::baseline(4, 64),
                                     workloads::micro::independent(),
                                     60000);
    const CoreStats s6 = runWorkload(configs::baseline(6, 64),
                                     workloads::micro::independent(),
                                     60000);
    EXPECT_GT(s4.ipc(), 3.4);
    EXPECT_LE(s4.ipc(), 4.2);
    EXPECT_GT(s6.ipc() / s4.ipc(), 1.3);
}

TEST(CoreBaseline, PredictableLoopBranchesAreCheap)
{
    const CoreStats s = runWorkload(configs::baseline(6, 64),
                                    workloads::micro::loopTaken(), 60000);
    EXPECT_LT(double(s.branchMispredicts) / s.committedUops, 0.001);
}

TEST(CoreBaseline, RandomBranchesPayTheMispredictPenalty)
{
    const CoreStats pred = runWorkload(configs::baseline(6, 64),
                                       workloads::micro::togglingBranch(),
                                       60000);
    const CoreStats rand = runWorkload(configs::baseline(6, 64),
                                       workloads::micro::randomBranch(),
                                       60000);
    // The toggling branch is learnable; the random one is not, and the
    // ~50% misprediction rate on ~1/7 branch density wrecks IPC.
    EXPECT_GT(pred.ipc(), 3.0);
    EXPECT_LT(rand.ipc(), 1.0);
    EXPECT_GT(double(rand.branchMispredicts) * 1000 / rand.committedUops,
              40.0);
}

TEST(CoreBaseline, MispredictPenaltyMatchesPipelineDepth)
{
    // randomBranch: IPC ~= uops-between-mispredicts / penalty. Derive
    // the effective penalty and compare with the ~20-cycle front end.
    const CoreStats s = runWorkload(configs::baseline(6, 64),
                                    workloads::micro::randomBranch(),
                                    60000);
    const double uops_per_misp =
        double(s.committedUops) / s.branchMispredicts;
    const double cycles_per_misp = double(s.cycles) / s.branchMispredicts;
    const double useful = uops_per_misp / 6.0;  // issue-width bound
    const double penalty = cycles_per_misp - useful;
    EXPECT_GT(penalty, 14.0);
    EXPECT_LT(penalty, 30.0);
}

TEST(CoreBaseline, StoreToLoadForwardingWorks)
{
    const CoreStats s = runWorkload(configs::baseline(6, 64),
                                    workloads::micro::storeLoadForward(),
                                    60000);
    EXPECT_GT(s.storeToLoadForwards, s.committedUops / 10);
    EXPECT_GT(s.ipc(), 2.0);
}

TEST(CoreBaseline, MemOrderViolationDetectedAndTrained)
{
    // A store whose data (and address availability) trails a long
    // divide, followed by an independent-looking load of the same
    // address: the load issues early, the store arrives, violation.
    Assembler a;
    const IntReg d = 1, v = 2, u = 3, acc = 4, base = 20, c3 = 21;
    Label top = a.newLabel();
    a.bind(top);
    a.div(d, d, c3);        // 25-cycle blocker
    a.div(d, d, c3);
    a.addi(d, d, 7);
    a.st(d, base, 0);       // store waits for the divides
    a.ld(v, base, 0);       // same address: must see the store
    a.add(acc, acc, v);
    a.ld(u, base, 8);       // unrelated
    a.add(acc, acc, u);
    a.jmp(top);

    Workload w;
    w.name = "micro.violation";
    w.memBytes = 0x1000;
    w.program = a.finish();
    w.init = [](KernelVM &vm) {
        vm.setIntReg(1, 1000000007);
        vm.setIntReg(20, 0x100);
        vm.setIntReg(21, 3);
    };

    const CoreStats s = runWorkload(configs::baseline(6, 64), w, 30000);
    // At least one violation while Store Sets learns; afterwards the
    // dependence is enforced (far fewer violations than iterations).
    EXPECT_GE(s.memOrderViolations, 1u);
    EXPECT_LT(s.memOrderViolations, s.committedUops / 9 / 4);
    EXPECT_GT(s.storeToLoadForwards, 0u);
}

TEST(CoreBaseline, MemoryBoundChaseIsDramLimited)
{
    const CoreStats s = runWorkload(configs::baseline(6, 64),
                                    workloads::build("429.mcf"), 150000);
    EXPECT_LT(s.ipc(), 0.2);  // Table 3: mcf = 0.105
}

TEST(CoreBaseline, UnpipelinedDividesSerialize)
{
    // Independent divides throttle at numMulDiv units x 25 cycles.
    Assembler a;
    Label top = a.newLabel();
    a.bind(top);
    for (int k = 0; k < 8; ++k)
        a.div(IntReg(1 + k), IntReg(1 + k), IntReg(20));
    a.jmp(top);
    Workload w;
    w.name = "micro.div";
    w.memBytes = 0x100;
    w.program = a.finish();
    w.init = [](KernelVM &vm) {
        for (int r = 1; r <= 8; ++r)
            vm.setIntReg(r, 1000000000 + r);
        vm.setIntReg(20, 1);  // div by one: value stays put
    };
    const CoreStats s = runWorkload(configs::baseline(6, 64), w, 20000);
    // 9 µ-ops per iteration; 8 divides over 4 unpipelined units need
    // 2 x 25 cycles: IPC well below 1.
    EXPECT_LT(s.ipc(), 0.5);
}

TEST(CoreBaseline, DrainsFiniteProgram)
{
    Assembler a;
    const IntReg x = 1;
    for (int i = 0; i < 100; ++i)
        a.addi(x, x, 1);
    a.halt();
    Workload w;
    w.name = "micro.finite";
    w.memBytes = 0x100;
    w.program = a.finish();

    Core core(configs::baseline(6, 64), w);
    const std::uint64_t committed = core.run(1000000, 100000);
    EXPECT_EQ(committed, 100u);
}

TEST(CoreBaseline, ResetStatsPreservesArchState)
{
    Workload w = workloads::micro::depChain();
    Core core(configs::baseline(6, 64), w);
    core.run(10000, 1000000);
    core.resetStats();
    EXPECT_EQ(core.stats().committedUops, 0u);
    const std::uint64_t more = core.run(10000, 1000000);
    EXPECT_EQ(more, 10000u);
    EXPECT_GT(core.stats().ipc(), 0.9);
}

TEST(CoreVp, ValuePredictionBreaksDependencyChain)
{
    const CoreStats base = runWorkload(configs::baseline(6, 64),
                                       workloads::micro::depChain(),
                                       80000);
    const CoreStats vp = runWorkload(configs::baselineVp(6, 64),
                                     workloads::micro::depChain(), 80000);
    // The addi chain is perfectly stride-predictable: dependents use
    // predictions and the chain no longer bounds IPC.
    EXPECT_GT(vp.ipc(), base.ipc() * 2.0);
    EXPECT_GT(double(vp.vpCorrectUsed) / vp.vpPredictionsUsed, 0.999);
}

TEST(CoreVp, MispredictionsRecoverBySquashWithCorrectState)
{
    // Strided loads with periodic wrap: the wrap makes the stride
    // prediction wrong once per lap; commit-time validation squashes
    // and the oracle check proves state stays consistent.
    const CoreStats s = runWorkload(configs::baselineVp(6, 64),
                                    workloads::micro::stridedLoads(),
                                    200000);
    EXPECT_GT(s.vpMispredictSquashes, 0u);
    EXPECT_GT(double(s.vpCorrectUsed) / s.vpPredictionsUsed, 0.99);
}

TEST(CoreVp, AggressiveConfidenceCausesMoreSquashes)
{
    SimConfig plain = configs::baselineVp(6, 64);
    plain.vp.fpcVector = {1, 1, 1, 1, 1, 1, 1};
    const CoreStats aggressive = runWorkload(
        plain, workloads::micro::stridedLoads(), 200000);
    const CoreStats paper = runWorkload(
        configs::baselineVp(6, 64), workloads::micro::stridedLoads(),
        200000);
    EXPECT_GE(aggressive.vpMispredictSquashes,
              paper.vpMispredictSquashes);
}

// ----------------------- Parameterized config sweep -----------------------

struct ConfigWorkloadCase
{
    const char *config;
    const char *workload;
};

class CoreMatrix : public ::testing::TestWithParam<ConfigWorkloadCase>
{
  protected:
    static SimConfig
    configByName(const std::string &name)
    {
        if (name == "base")
            return configs::baseline(6, 64);
        if (name == "base4")
            return configs::baseline(4, 48);
        if (name == "vp")
            return configs::baselineVp(6, 64);
        if (name == "eole")
            return configs::eole(6, 64);
        if (name == "eole_banked")
            return configs::eoleBanked(4, 64, 4);
        if (name == "eole_ports")
            return configs::eoleConstrained(4, 64, 4, 2);
        if (name == "ole")
            return configs::ole(4, 64, 4, 4);
        if (name == "eoe")
            return configs::eoe(4, 64, 4, 4);
        return configs::baseline(6, 64);
    }

    static Workload
    workloadByName(const std::string &name)
    {
        if (name == "depchain")
            return workloads::micro::depChain();
        if (name == "independent")
            return workloads::micro::independent();
        if (name == "strided")
            return workloads::micro::stridedLoads();
        if (name == "stlfwd")
            return workloads::micro::storeLoadForward();
        if (name == "randbranch")
            return workloads::micro::randomBranch();
        if (name == "toggle")
            return workloads::micro::togglingBranch();
        return workloads::build(name);
    }
};

TEST_P(CoreMatrix, RunsToCompletionWithConsistentStats)
{
    const auto &param = GetParam();
    const SimConfig cfg = configByName(param.config);
    const Workload w = workloadByName(param.workload);
    Core core(cfg, w);
    const std::uint64_t committed = core.run(40000, 8000000);
    // The oracle check in commit makes this a correctness test: any
    // dataflow/bypass/squash bug panics. On top, basic invariants:
    const CoreStats &s = core.stats();
    EXPECT_EQ(committed, s.committedUops);
    EXPECT_GT(s.committedUops, 0u);
    EXPECT_GT(s.ipc(), 0.0);
    EXPECT_LE(s.ipc(), double(cfg.commitWidth));
    if (!cfg.earlyExec) {
        EXPECT_EQ(s.earlyExecuted, 0u);
    }
    if (!cfg.lateExec) {
        EXPECT_EQ(s.lateExecutedAlu, 0u);
        EXPECT_EQ(s.lateExecutedBranches, 0u);
    }
    if (!cfg.vpEnabled()) {
        EXPECT_EQ(s.vpPredictionsUsed, 0u);
    }
    EXPECT_LE(s.earlyExecuted + s.lateExecutedAlu + s.lateExecutedBranches,
              s.committedUops);
}

INSTANTIATE_TEST_SUITE_P(
    ConfigsTimesWorkloads, CoreMatrix,
    ::testing::Values(
        ConfigWorkloadCase{"base", "depchain"},
        ConfigWorkloadCase{"base", "randbranch"},
        ConfigWorkloadCase{"base", "stlfwd"},
        ConfigWorkloadCase{"base4", "independent"},
        ConfigWorkloadCase{"base4", "164.gzip"},
        ConfigWorkloadCase{"vp", "strided"},
        ConfigWorkloadCase{"vp", "445.gobmk"},
        ConfigWorkloadCase{"vp", "401.bzip2"},
        ConfigWorkloadCase{"eole", "depchain"},
        ConfigWorkloadCase{"eole", "randbranch"},
        ConfigWorkloadCase{"eole", "444.namd"},
        ConfigWorkloadCase{"eole", "456.hmmer"},
        ConfigWorkloadCase{"eole_banked", "179.art"},
        ConfigWorkloadCase{"eole_banked", "strided"},
        ConfigWorkloadCase{"eole_ports", "444.namd"},
        ConfigWorkloadCase{"eole_ports", "stlfwd"},
        ConfigWorkloadCase{"ole", "186.crafty"},
        ConfigWorkloadCase{"ole", "depchain"},
        ConfigWorkloadCase{"eoe", "186.crafty"},
        ConfigWorkloadCase{"eoe", "independent"}));

// ------------------------- Idle-cycle skip -------------------------
//
// Core::run jumps over cycles in which no stage can act (the
// quiescence contract, pipeline/stages/stage.hh). The reference is a
// core that ticks every cycle: one of its stages is wrapped in a
// pass-through decorator that keeps Stage's default nextActiveCycle
// (st.now), which turns the skip off. Every statistic, memory
// hierarchy included, must match bit for bit.

namespace {

/** Delegates everything to the wrapped stage except, unless
 *  @p forwardIdle, the quiescence promise. Counts ticks. */
class PassThrough : public Stage
{
  public:
    PassThrough(std::unique_ptr<Stage> inner_, bool forward_idle)
        : inner(std::move(inner_)), forwardIdle(forward_idle)
    {
    }

    const char *name() const override { return inner->name(); }

    void
    tick(PipelineState &st) override
    {
        ++ticks;
        inner->tick(st);
    }

    Cycle
    nextActiveCycle(PipelineState &st) const override
    {
        return forwardIdle ? inner->nextActiveCycle(st)
                           : Stage::nextActiveCycle(st);
    }

    void
    skipIdle(const PipelineState &st, Cycle n) override
    {
        inner->skipIdle(st, n);
    }

    void
    squash(PipelineState &st, SeqNum keep_seq, Cycle resume) override
    {
        inner->squash(st, keep_seq, resume);
    }

    void
    onFetchRedirect(PipelineState &st) override
    {
        inner->onFetchRedirect(st);
    }

    void resetStats() override { inner->resetStats(); }
    void addStats(CoreStats &out) const override { inner->addStats(out); }

    std::uint64_t ticks = 0;

  private:
    std::unique_ptr<Stage> inner;
    bool forwardIdle;
};

/** A core whose completion stage (outside the squash order and the
 *  commit->LE/VT link, so no rewiring) is wrapped; @p skip keeps the
 *  idle-cycle skip on. */
struct WrappedCore
{
    WrappedCore(const SimConfig &cfg, const Workload &w, bool skip)
        : core(cfg, w, wrap(cfg, skip, &probe))
    {
    }

    static StagePipeline
    wrap(const SimConfig &cfg, bool skip, PassThrough **out)
    {
        StagePipeline p = buildDefaultPipeline(cfg);
        for (auto &stage : p.stages) {
            if (std::string(stage->name()) == "completion") {
                auto wrapped =
                    std::make_unique<PassThrough>(std::move(stage), skip);
                *out = wrapped.get();
                stage = std::move(wrapped);
            }
        }
        return p;
    }

    PassThrough *probe = nullptr;
    Core core;
};

/** First differing stat between two records, or "" when equal. */
std::string
firstDiff(const StatRecord &a, const StatRecord &b)
{
    const auto &x = a.all();
    const auto &y = b.all();
    for (std::size_t i = 0; i < std::min(x.size(), y.size()); ++i) {
        if (x[i] != y[i]) {
            return x[i].first + ": " + std::to_string(x[i].second)
                + " vs " + y[i].first + ": "
                + std::to_string(y[i].second);
        }
    }
    return x.size() == y.size() ? "" : "record lengths differ";
}

/** Eight banks of 12 int registers: rename bank-stalls, and keeps
 *  stalling through idle stretches, long before the IQ fills. */
SimConfig
tightBankedPrf()
{
    SimConfig c = configs::eoleBanked(4, 64, 8);
    c.name += "_96regs";
    c.physIntRegs = 96;
    return c;
}

std::vector<SimConfig>
idleSkipConfigs()
{
    return {
        // fig12
        configs::baselineVp(6, 64), configs::baseline(6, 64),
        configs::eole(4, 64), configs::eoleConstrained(4, 64, 4, 4),
        // fig07 narrow issue, fig08 small IQ
        configs::baselineVp(4, 64), configs::baselineVp(6, 48),
        configs::eole(6, 48),
        // every per-cycle stall counter accrues in bulk somewhere
        tightBankedPrf()};
}

// torture:11:300 (~14k µ-ops) drains inside the measured window.
const char *const idleSkipWorkloads[] = {"429.mcf", "197.parser",
                                         "173.applu", "torture:11:300",
                                         "torture:12:700"};

} // namespace

TEST(IdleSkip, WarmupThenMeasureMatchesTickingEveryCycle)
{
    // Warmup -> resetStats -> measure is the trailing-cycle trap: a
    // skip taken after the warmup's commit target would move the clock
    // and add cycles to the measured window.
    CoreStats seen;  // every bulk-accrued counter must be exercised
    for (const SimConfig &cfg : idleSkipConfigs()) {
        for (const char *name : idleSkipWorkloads) {
            SCOPED_TRACE(cfg.name + " / " + name);
            const Workload w = workloads::build(name);
            WrappedCore skip(cfg, w, true);
            WrappedCore ref(cfg, w, false);
            for (WrappedCore *c : {&skip, &ref}) {
                c->core.run(4000, 4000000);
                c->core.resetStats();
            }
            ASSERT_EQ(skip.core.cycle(), ref.core.cycle());
            EXPECT_EQ(skip.core.run(12000, 4000000),
                      ref.core.run(12000, 4000000));
            EXPECT_EQ(skip.core.cycle(), ref.core.cycle());
            EXPECT_EQ(firstDiff(skip.core.record(), ref.core.record()), "");
            EXPECT_EQ(ref.probe->ticks, ref.core.cycle());
            const CoreStats &s = skip.core.stats();
            seen.robFullStalls += s.robFullStalls;
            seen.iqFullStalls += s.iqFullStalls;
            seen.renameBankStalls += s.renameBankStalls;
            seen.iqOccupancySum += s.iqOccupancySum;
        }
    }
    EXPECT_GT(seen.robFullStalls, 0u);
    EXPECT_GT(seen.iqFullStalls, 0u);
    EXPECT_GT(seen.renameBankStalls, 0u);
    EXPECT_GT(seen.iqOccupancySum, 0u);
}

TEST(IdleSkip, SkipsMostOfADramBoundRun)
{
    // Guard against a vacuous differential test: on 429.mcf the
    // skipping core must tick far fewer cycles than it simulates.
    const Workload w = workloads::build("429.mcf");
    WrappedCore skip(configs::eole(4, 64), w, true);
    skip.core.run(10000, 4000000);
    EXPECT_LT(skip.probe->ticks * 2, skip.core.cycle());
}

TEST(IdleSkip, MaxCyclesBoundInsideAnIdleStretch)
{
    // Short max_cycles chunks end inside idle stretches: the jump must
    // clamp to the bound exactly and resume from there.
    const SimConfig cfg = configs::baselineVp(6, 64);
    const Workload w = workloads::build("429.mcf");
    WrappedCore skip(cfg, w, true);
    WrappedCore ref(cfg, w, false);
    for (int chunk = 0; chunk < 400; ++chunk) {
        const std::uint64_t bound = 13 + chunk % 97;
        const Cycle start = skip.core.cycle();
        ASSERT_EQ(skip.core.run(~0ULL, bound), ref.core.run(~0ULL, bound));
        ASSERT_EQ(skip.core.cycle(), start + bound);
        ASSERT_EQ(skip.core.cycle(), ref.core.cycle());
    }
    EXPECT_LT(skip.probe->ticks, skip.core.cycle());
    EXPECT_EQ(firstDiff(skip.core.record(), ref.core.record()), "");
}

TEST(IdleSkip, FunctionalWarmBetweenDetailedRuns)
{
    // Detailed run -> functional warm -> detailed run: the warm pass
    // jumps the clock past completions still on the wheel, which must
    // drain (and complete at the new `now`) on the very next tick.
    const SimConfig cfg = configs::eole(4, 64);
    Workload w = workloads::build("429.mcf");
    w.frozen = w.freeze(60000);
    WrappedCore skip(cfg, w, true);
    WrappedCore ref(cfg, w, false);
    for (WrappedCore *c : {&skip, &ref}) {
        c->core.run(3000, 4000000);
        ASSERT_FALSE(c->core.pipelineState().completions.empty());
        c->core.functionalWarm(*w.frozen, 10000, 40000);
        ASSERT_LT(c->core.pipelineState().completions.nextEventCycle(),
                  c->core.cycle());
        c->core.resetStats();
    }
    ASSERT_EQ(skip.core.cycle(), ref.core.cycle());
    EXPECT_EQ(skip.core.run(10000, 4000000), ref.core.run(10000, 4000000));
    EXPECT_EQ(skip.core.cycle(), ref.core.cycle());
    EXPECT_EQ(firstDiff(skip.core.record(), ref.core.record()), "");
}

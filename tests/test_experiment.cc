/**
 * @file
 * Tests for the experiment layer: named configurations, the parallel
 * sweep engine (plans, jobs, seeding, trace cache), artifacts and
 * table helpers.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "sim/artifact.hh"
#include "sim/configs.hh"
#include "sim/experiment.hh"
#include "sim/plans.hh"
#include "sim/sweep.hh"
#include "sim/trace_cache.hh"
#include "workloads/workload.hh"

using namespace eole;

namespace {

/** The 2x2 determinism plan, pinned at explicit run lengths. */
ExperimentPlan
tinyPlan()
{
    ExperimentPlan p = plans::get("smoke");
    p.warmup = 2000;
    p.measure = 20000;
    return p;
}

/** An ad-hoc grid plan whose run lengths come from the environment. */
ExperimentPlan
gridPlan(const std::vector<SimConfig> &cfgs,
         const std::vector<std::string> &workloads)
{
    ExperimentPlan p;
    p.name = "grid";
    p.configs = cfgs;
    p.workloads = workloads;
    return p;
}

} // namespace

TEST(Configs, NamesFollowThePaper)
{
    EXPECT_EQ(configs::baseline(6, 64).name, "Baseline_6_64");
    EXPECT_EQ(configs::baselineVp(4, 64).name, "Baseline_VP_4_64");
    EXPECT_EQ(configs::eole(6, 48).name, "EOLE_6_48");
    EXPECT_EQ(configs::eoleConstrained(4, 64, 4, 4).name,
              "EOLE_4_64_4ports_4banks");
    EXPECT_EQ(configs::ole(4, 64, 4, 4).name, "OLE_4_64_4ports_4banks");
    EXPECT_EQ(configs::eoe(4, 64, 4, 4).name, "EOE_4_64_4ports_4banks");
}

TEST(Configs, KnobsAreConsistent)
{
    const SimConfig b = configs::baseline(4, 48);
    EXPECT_EQ(b.issueWidth, 4);
    EXPECT_EQ(b.iqEntries, 48);
    EXPECT_EQ(b.numAlu, 4);  // ALU rank tracks issue width (§6.1)
    EXPECT_FALSE(b.vpEnabled());
    EXPECT_EQ(b.preCommitCycles(), 0);

    const SimConfig v = configs::baselineVp(6, 64);
    EXPECT_TRUE(v.vpEnabled());
    EXPECT_EQ(v.preCommitCycles(), 1);  // the LE/VT stage
    EXPECT_FALSE(v.eoleActive());

    const SimConfig e = configs::eoleConstrained(4, 64, 4, 3);
    EXPECT_TRUE(e.earlyExec);
    EXPECT_TRUE(e.lateExec);
    EXPECT_EQ(e.prfBanks, 4);
    EXPECT_EQ(e.levtReadPortsPerBank, 3);
    EXPECT_EQ(e.eeWritePortsPerBank, 2);

    const SimConfig o = configs::ole(4, 64, 4, 4);
    EXPECT_FALSE(o.earlyExec);
    EXPECT_TRUE(o.lateExec);

    const SimConfig eo = configs::eoe(4, 64, 4, 4);
    EXPECT_TRUE(eo.earlyExec);
    EXPECT_FALSE(eo.lateExec);
}

TEST(Experiment, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(geomean({2.0, 2.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Experiment, EnvOverridesRunLengths)
{
    setenv("EOLE_WARMUP", "123", 1);
    setenv("EOLE_INSTS", "456", 1);
    EXPECT_EQ(warmupUops(), 123u);
    EXPECT_EQ(measureUops(), 456u);
    unsetenv("EOLE_WARMUP");
    unsetenv("EOLE_INSTS");
}

TEST(Experiment, GridRunsAllPairsInParallel)
{
    setenv("EOLE_WARMUP", "2000", 1);
    setenv("EOLE_INSTS", "20000", 1);

    const std::vector<SimConfig> cfgs = {configs::baseline(6, 64),
                                         configs::baselineVp(6, 64)};
    const std::vector<std::string> names = {"164.gzip", "186.crafty"};
    const auto results = runPlan(gridPlan(cfgs, names)).cells;
    ASSERT_EQ(results.size(), 4u);

    for (const auto &cfg : cfgs) {
        for (const auto &wname : names) {
            const RunResult &r = findResult(results, cfg.name, wname);
            EXPECT_GT(r.ipc(), 0.0) << cfg.name << "/" << wname;
            // A commit group may overshoot the target by < commitWidth.
            EXPECT_GE(r.stats.get("committed_uops"), 20000.0);
            EXPECT_LT(r.stats.get("committed_uops"), 20008.0);
        }
    }
    // VP stats only present (non-zero) on the VP configuration.
    EXPECT_EQ(findResult(results, "Baseline_6_64", "164.gzip")
                  .stats.get("vp_used"),
              0.0);

    unsetenv("EOLE_WARMUP");
    unsetenv("EOLE_INSTS");
}

TEST(Experiment, FindResultDiesOnMissing)
{
    std::vector<RunResult> results;
    EXPECT_DEATH((void)findResult(results, "nope", "nothing"),
                 "no result");
}

// ------------------------- Sweep engine ----------------------------------

TEST(Plans, RegistryCoversTheFigures)
{
    const auto &names = plans::allNames();
    ASSERT_GE(names.size(), 13u);
    for (const char *expected :
         {"fig02", "fig04", "fig06", "fig07", "fig08", "fig10", "fig11",
          "fig12", "fig13", "table3", "abl_fpc", "abl_predictors",
          "smoke"}) {
        EXPECT_TRUE(plans::exists(expected)) << expected;
    }

    const ExperimentPlan fig12 = plans::get("fig12");
    EXPECT_EQ(fig12.configs.size(), 4u);
    EXPECT_EQ(fig12.workloads.size(), 19u);
    ASSERT_EQ(fig12.tables.size(), 1u);
    EXPECT_EQ(fig12.tables[0].normalizeTo, "Baseline_VP_6_64");

    EXPECT_FALSE(plans::exists("not_a_plan"));
    EXPECT_DEATH((void)plans::get("not_a_plan"), "unknown plan");
}

TEST(Plans, JobSeedsAreStableAndCellUnique)
{
    // Per-job seeds are a pure function of (plan seed, config seed,
    // config name, workload) — never of scheduling. Each input must
    // change the seed, including SimConfig::seed alone (so a seed
    // study over same-named configs measures something).
    const std::uint64_t s = jobSeed(1, 1, "EOLE_4_64", "164.gzip");
    EXPECT_EQ(s, jobSeed(1, 1, "EOLE_4_64", "164.gzip"));
    EXPECT_NE(s, jobSeed(2, 1, "EOLE_4_64", "164.gzip"));
    EXPECT_NE(s, jobSeed(1, 2, "EOLE_4_64", "164.gzip"));
    EXPECT_NE(s, jobSeed(1, 1, "EOLE_6_64", "164.gzip"));
    EXPECT_NE(s, jobSeed(1, 1, "EOLE_4_64", "186.crafty"));
}

TEST(Sweep, JobCountDoesNotChangeTheArtifactBytes)
{
    // The headline guarantee: a 2x2 plan serially and on 8 workers
    // produces byte-identical JSON artifacts.
    const ExperimentPlan plan = tinyPlan();

    SweepOptions serial;
    serial.jobs = 1;
    SweepOptions wide;
    wide.jobs = 8;

    const std::string a = jsonArtifactString(runPlan(plan, serial));
    const std::string b = jsonArtifactString(runPlan(plan, wide));
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("\"schema\": \"eole-sweep-v2\""), std::string::npos);
}

TEST(Sweep, TraceCacheDoesNotChangeTheArtifactBytes)
{
    // Frozen-trace replay is a pure accelerator: live-VM execution
    // must produce the same bytes.
    const ExperimentPlan plan = tinyPlan();

    SweepOptions cached;   // default: cache on
    SweepOptions live;
    live.useTraceCache = false;

    EXPECT_EQ(jsonArtifactString(runPlan(plan, cached)),
              jsonArtifactString(runPlan(plan, live)));
}

TEST(Sweep, FilterSelectsCells)
{
    const ExperimentPlan plan = tinyPlan();
    SweepOptions opt;
    opt.filter = "gzip";
    const PlanResult res = runPlan(plan, opt);
    ASSERT_EQ(res.cells.size(), 2u);
    for (const RunResult &cell : res.cells)
        EXPECT_EQ(cell.workload, "164.gzip");
    EXPECT_NE(res.find("Baseline_6_64", "164.gzip"), nullptr);
    EXPECT_EQ(res.find("Baseline_6_64", "186.crafty"), nullptr);

    opt.filter = "no-such-cell";
    EXPECT_TRUE(runPlan(plan, opt).cells.empty());
}

TEST(Sweep, ProgressReportsEveryJob)
{
    const ExperimentPlan plan = tinyPlan();
    SweepOptions opt;
    opt.jobs = 2;
    std::size_t calls = 0, last_total = 0;
    opt.progress = [&](std::size_t, std::size_t total,
                       const RunResult &) {
        ++calls;
        last_total = total;
    };
    (void)runPlan(plan, opt);
    EXPECT_EQ(calls, 4u);
    EXPECT_EQ(last_total, 4u);
}

TEST(TraceCacheT, ByteBudgetEnforcedUnderPressure)
{
    // PR 2 added the per-trace byte budget; pin its enforcement. A
    // request whose recording cannot fit must be declined (the caller
    // falls back to live-VM execution), while requests within budget
    // still cache.
    setenv("EOLE_TRACE_CACHE_MB", "1", 1);  // 1 MB budget
    TraceCache cache;
    const Workload w = workloads::build("164.gzip");

    const std::uint64_t fits = (512 * 1024) / sizeof(TraceUop);
    const std::uint64_t toobig = (2 * 1024 * 1024) / sizeof(TraceUop);
    EXPECT_EQ(cache.get(w, toobig), nullptr);
    const auto small = cache.get(w, fits);
    ASSERT_NE(small, nullptr);
    EXPECT_LE(small->bytes(), TraceCache::byteBudget());

    // The sweep engine under the same pressure: every job falls back
    // to the live VM, and the artifact bytes must not move (the cache
    // is a pure accelerator even when it declines).
    const ExperimentPlan plan = tinyPlan();
    const std::string pressured =
        jsonArtifactString(runPlan(plan, SweepOptions{}));
    unsetenv("EOLE_TRACE_CACHE_MB");
    const std::string cached =
        jsonArtifactString(runPlan(plan, SweepOptions{}));
    EXPECT_EQ(pressured, cached);
}

TEST(TraceCacheT, RefcountedEvictionOrder)
{
    // drop() is refcounted eviction: the map entry clears immediately,
    // but holders keep the recording alive until their job finishes —
    // and a later get() re-records instead of resurrecting the
    // dropped stream.
    TraceCache cache;
    const Workload w = workloads::build("164.gzip");

    const auto held = cache.get(w, 4000);
    ASSERT_NE(held, nullptr);
    const FrozenTrace *held_raw = held.get();
    EXPECT_EQ(cache.get(w, 4000).get(), held_raw);  // shared, not re-made

    cache.drop(w.name);
    // The held reference survives eviction (jobs in flight).
    EXPECT_GE(held->uops.size(), 4000u);
    // A new request is a fresh recording, not the dropped pointer.
    const auto fresh = cache.get(w, 4000);
    ASSERT_NE(fresh, nullptr);
    EXPECT_NE(fresh.get(), held_raw);
    // Both recordings replay the same functional stream.
    ASSERT_GE(fresh->uops.size(), 4000u);
    for (std::size_t i = 0; i < 4000; ++i) {
        ASSERT_EQ(fresh->uops[i].pc, held->uops[i].pc);
        ASSERT_EQ(fresh->uops[i].result, held->uops[i].result);
    }

    // Dropping with no trace present is a no-op, as is dropping twice.
    cache.drop(w.name);
    cache.drop("never-cached");
    EXPECT_NE(cache.get(w, 4000), nullptr);
}

TEST(TraceCacheT, SharesAndDropsTraces)
{
    TraceCache cache;
    const Workload w = workloads::build("164.gzip");
    const auto a = cache.get(w, 5000);
    ASSERT_NE(a, nullptr);
    EXPECT_GE(a->uops.size(), a->complete ? 0u : 5000u);
    // Second request is the same recording, not a new one.
    EXPECT_EQ(cache.get(w, 5000).get(), a.get());
    // A longer request re-records; a dropped entry re-records too.
    const auto b = cache.get(w, 6000);
    ASSERT_NE(b, nullptr);
    EXPECT_GE(b->uops.size(), b->complete ? 0u : 6000u);
    cache.drop(w.name);
    EXPECT_NE(cache.get(w, 5000), nullptr);
    // Held references stay valid after drop.
    EXPECT_GE(a->uops.size(), 1u);
}

TEST(Artifact, JsonRoundTripsAndCsvAgrees)
{
    const ExperimentPlan plan = tinyPlan();
    const PlanResult res = runPlan(plan);

    std::stringstream json;
    writeJsonArtifact(json, res);
    const PlanResult back = readJsonArtifact(json);

    EXPECT_EQ(back.plan, res.plan);
    EXPECT_EQ(back.seed, res.seed);
    EXPECT_EQ(back.warmup, res.warmup);
    EXPECT_EQ(back.measure, res.measure);
    ASSERT_EQ(back.cells.size(), res.cells.size());
    for (std::size_t i = 0; i < res.cells.size(); ++i) {
        EXPECT_EQ(back.cells[i].config, res.cells[i].config);
        EXPECT_EQ(back.cells[i].seed, res.cells[i].seed);
        ASSERT_EQ(back.cells[i].stats.all().size(),
                  res.cells[i].stats.all().size());
        // %.17g round-trips doubles exactly.
        for (const auto &[name, value] : res.cells[i].stats.all())
            EXPECT_EQ(back.cells[i].stats.get(name), value) << name;
    }

    // Round-tripping again produces identical bytes.
    EXPECT_EQ(jsonArtifactString(back), jsonArtifactString(res));

    std::stringstream csv;
    writeCsvArtifact(csv, res);
    std::string header;
    std::getline(csv, header);
    EXPECT_EQ(header, "plan,config,workload,seed,stat,value");
}

TEST(Artifact, DiffDetectsDivergence)
{
    const ExperimentPlan plan = tinyPlan();
    PlanResult a = runPlan(plan);
    PlanResult b = a;

    std::ostringstream sink;
    EXPECT_EQ(diffArtifacts(a, b, DiffOptions{}, sink), 0u);

    // Perturb one stat: exact diff catches it, a loose tolerance
    // forgives it.
    ASSERT_FALSE(b.cells.empty());
    StatRecord tweaked;
    for (const auto &[name, value] : b.cells[0].stats.all())
        tweaked.add(name, name == "ipc" ? value * 1.0001 : value);
    b.cells[0].stats = tweaked;
    EXPECT_EQ(diffArtifacts(a, b, DiffOptions{}, sink), 1u);
    DiffOptions loose;
    loose.relTol = 0.01;
    EXPECT_EQ(diffArtifacts(a, b, loose, sink), 0u);

    // A missing cell is a difference in both directions.
    b.cells.pop_back();
    EXPECT_GE(diffArtifacts(a, b, loose, sink), 1u);
}

TEST(Artifact, MissingStatKeysAreAlwaysADifference)
{
    // Regression: a stat key present on only one side used to slip
    // through unreported when it was only b that had it, so a loose
    // tolerance could pass artifacts with drifted schemas. Missing
    // keys must be reported in both directions, under any tolerance
    // and in CI-overlap mode.
    const ExperimentPlan plan = tinyPlan();
    const PlanResult a = runPlan(plan);
    PlanResult b = a;

    ASSERT_FALSE(b.cells.empty());
    ASSERT_FALSE(b.cells[0].stats.all().empty());
    // Drop one stat from b and add a novel one only b has.
    const std::string dropped = b.cells[0].stats.all().front().first;
    StatRecord tweaked;
    for (const auto &[name, value] : b.cells[0].stats.all()) {
        if (name != dropped)
            tweaked.add(name, value);
    }
    tweaked.add("novel_stat_only_in_b", 1.0);
    b.cells[0].stats = tweaked;

    DiffOptions loose;
    loose.relTol = 1e9;  // forgives any numeric divergence
    loose.absTol = 1e9;
    std::ostringstream out;
    EXPECT_EQ(diffArtifacts(a, b, loose, out), 2u);
    EXPECT_NE(out.str().find(dropped + " missing from b"),
              std::string::npos);
    EXPECT_NE(out.str().find("novel_stat_only_in_b missing from a"),
              std::string::npos);

    DiffOptions ci = loose;
    ci.ciOverlap = true;
    std::ostringstream out2;
    EXPECT_EQ(diffArtifacts(a, b, ci, out2), 2u);
}

TEST(Artifact, CiOverlapComparesSampledStats)
{
    // Two sampled artifacts whose mean IPCs differ but whose CIs
    // overlap must agree under --ci and disagree without it.
    PlanResult a;
    a.plan = "ci";
    RunResult cell;
    cell.config = "C";
    cell.workload = "W";
    cell.stats.add("ipc", 1.00);
    cell.stats.add("ipc_ci95", 0.05);
    cell.stats.add("ipc_stddev", 0.04);
    a.cells.push_back(cell);

    PlanResult b = a;
    StatRecord other;
    other.add("ipc", 1.07);       // |Δ| = 0.07 <= 0.05 + 0.05
    other.add("ipc_ci95", 0.05);
    other.add("ipc_stddev", 0.09);  // metadata: skipped under --ci
    b.cells[0].stats = other;

    std::ostringstream sink;
    EXPECT_GE(diffArtifacts(a, b, DiffOptions{}, sink), 1u);
    DiffOptions ci;
    ci.ciOverlap = true;
    EXPECT_EQ(diffArtifacts(a, b, ci, sink), 0u);

    // Beyond the overlap it is a difference again.
    StatRecord far;
    far.add("ipc", 1.20);
    far.add("ipc_ci95", 0.05);
    far.add("ipc_stddev", 0.04);
    b.cells[0].stats = far;
    EXPECT_EQ(diffArtifacts(a, b, ci, sink), 1u);
}

TEST(Experiment, DeterministicAcrossRuns)
{
    setenv("EOLE_WARMUP", "1000", 1);
    setenv("EOLE_INSTS", "10000", 1);
    const std::vector<SimConfig> cfgs = {configs::eole(4, 64)};
    const std::vector<std::string> names = {"458.sjeng"};
    const auto a = runPlan(gridPlan(cfgs, names)).cells;
    const auto b = runPlan(gridPlan(cfgs, names)).cells;
    EXPECT_DOUBLE_EQ(a[0].stats.get("cycles"), b[0].stats.get("cycles"));
    EXPECT_DOUBLE_EQ(a[0].stats.get("early_executed"),
                     b[0].stats.get("early_executed"));
    unsetenv("EOLE_WARMUP");
    unsetenv("EOLE_INSTS");
}

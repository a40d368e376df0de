/**
 * @file
 * Tests for the observability layer: pipeline event tracing
 * (common/pipetrace.hh), the tick-loop profiler (common/profiler.hh),
 * sweep telemetry (sim/telemetry.hh) and build provenance
 * (common/build_info.hh).
 *
 * The load-bearing contracts:
 *  - Canonical pipetraces are byte-stable for a fixed cell, and carry
 *    the full µop lifecycle including squash and VP/LE annotations.
 *  - The Kanata form opens every fetched µop and closes it exactly
 *    once (retired or flushed).
 *  - The profiler records nothing when disabled, and when enabled its
 *    top-level sections sum to at most the measured wall time.
 *  - Telemetry JSONL round-trips, terminates with run_finish or
 *    run_aborted, and never perturbs artifacts.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/build_info.hh"
#include "common/pipetrace.hh"
#include "common/profiler.hh"
#include "pipeline/core.hh"
#include "sim/artifact.hh"
#include "sim/configs.hh"
#include "sim/plan.hh"
#include "sim/sample/sample.hh"
#include "sim/store.hh"
#include "sim/sweep.hh"
#include "sim/telemetry.hh"
#include "sim/trace_cache.hh"
#include "workloads/workload.hh"

using namespace eole;

namespace {

ExperimentPlan
oneCellPlan(const std::string &config, const std::string &workload,
            std::uint64_t warmup, std::uint64_t measure)
{
    SimConfig c;
    EXPECT_TRUE(configs::findNamed(config, &c)) << config;
    ExperimentPlan p;
    p.name = "obs";
    p.configs = {c};
    p.workloads = {workload};
    p.warmup = warmup;
    p.measure = measure;
    return p;
}

std::string
traceOf(const std::string &config, const std::string &workload,
        PipeTracer::Format format, std::uint64_t warmup = 500,
        std::uint64_t measure = 1500, SeqNum lo = 0,
        SeqNum hi = ~SeqNum{0})
{
    const ExperimentPlan p = oneCellPlan(config, workload, warmup, measure);
    std::ostringstream os;
    PipeTracer tracer(os, format, lo, hi);
    SweepOptions opt;
    opt.tracer = &tracer;
    runPlan(p, opt);
    tracer.finish();
    return os.str();
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line))
        lines.push_back(line);
    return lines;
}

/** A scratch file path under the test's cwd, fresh per call. */
std::string
scratchFile(const std::string &name)
{
    const std::string path = "test_obs_" + name + ".tmp";
    std::filesystem::remove(path);
    return path;
}

} // namespace

// --- Profiler --------------------------------------------------------------

TEST(Profiler, DisabledRecordsNothing)
{
    prof::setEnabled(false);
    prof::reset();
    {
        prof::ScopedTimer t(prof::StageFetch);
        prof::ScopedTimer u(prof::ModelVpred);
    }
    for (int s = 0; s < prof::NumSections; ++s) {
        const auto sec = static_cast<prof::Section>(s);
        EXPECT_EQ(prof::sectionNanos(sec), 0u) << prof::sectionName(sec);
        EXPECT_EQ(prof::sectionCount(sec), 0u) << prof::sectionName(sec);
    }
}

TEST(Profiler, ScopedTimerRecordsWhenEnabled)
{
    prof::setEnabled(true);
    prof::reset();
    {
        prof::ScopedTimer t(prof::StageIssue);
    }
    prof::setEnabled(false);
    EXPECT_EQ(prof::sectionCount(prof::StageIssue), 1u);
    EXPECT_GT(prof::sectionNanos(prof::StageIssue), 0u);
    EXPECT_EQ(prof::sectionCount(prof::StageCommit), 0u);
}

TEST(Profiler, StageSectionsSumToAtMostWallTime)
{
    prof::setEnabled(true);
    prof::reset();
    const auto t0 = std::chrono::steady_clock::now();
    runPlan(oneCellPlan("EOLE_4_64_2banks", "164.gzip", 1000, 20000));
    const std::uint64_t wallNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0).count();
    prof::setEnabled(false);

    // Every pipeline stage ticked, and the VP config exercised the
    // predictor model sections.
    const prof::Section stages[] = {
        prof::StageFetch, prof::StageRename, prof::StageDispatch,
        prof::StageIssue, prof::StageCompletion, prof::StageLevt,
        prof::StageCommit,
    };
    std::uint64_t topNs = 0;
    for (const prof::Section s : stages) {
        EXPECT_GT(prof::sectionCount(s), 0u) << prof::sectionName(s);
        topNs += prof::sectionNanos(s);
    }
    topNs += prof::sectionNanos(prof::StageOther)
        + prof::sectionNanos(prof::WarmFunctional)
        + prof::sectionNanos(prof::WarmRestore);
    EXPECT_GT(prof::sectionCount(prof::ModelVpred), 0u);

    // Top-level sections tile a subset of the run: their sum cannot
    // exceed the wall time around it (model.* sections nest inside
    // stage.* and are excluded from the sum).
    EXPECT_GT(topNs, 0u);
    EXPECT_LE(topNs, wallNs);
}

TEST(Profiler, SectionsCoverMeasuredTime)
{
    // Time a warmed core's measured region directly: the stage timers
    // tile the tick loop, so they account for most of the region
    // without exceeding it.
    SimConfig cfg;
    ASSERT_TRUE(configs::findNamed("EOLE_4_64_2banks", &cfg));
    Workload wl = workloads::build("164.gzip");
    wl.frozen = wl.freeze(30000);
    Core core(cfg, wl);
    core.run(2000);
    core.resetStats();

    prof::setEnabled(true);
    prof::reset();
    const auto t0 = std::chrono::steady_clock::now();
    core.run(20000);
    const double secs = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
    prof::setEnabled(false);

    double top = 0.0;
    for (int s = 0; s < prof::NumSections; ++s) {
        const auto sec = static_cast<prof::Section>(s);
        const std::string name = prof::sectionName(sec);
        if (name.rfind("stage.", 0) == 0 || name.rfind("warm.", 0) == 0)
            top += prof::sectionNanos(sec) * 1e-9;
    }
    EXPECT_GT(prof::sectionNanos(prof::ModelVpred), 0u);
    EXPECT_LE(top, secs);
    EXPECT_GE(top, 0.5 * secs);
}

TEST(Profiler, TableSharesAreOfTheTopLevelTotal)
{
    prof::setEnabled(false);
    prof::reset();
    prof::add(prof::StageIssue, 3000000000);
    prof::add(prof::WarmFunctional, 1000000000);
    prof::add(prof::ModelVpred, 2000000000);
    std::ostringstream os;
    prof::writeTable(os);
    prof::reset();

    // model.* nests inside a stage: marked, and outside the total.
    const std::string t = os.str();
    EXPECT_NE(t.find("stage.issue          3.000 s   75.0%\n"),
              std::string::npos) << t;
    EXPECT_NE(t.find("warm.functional      1.000 s   25.0%\n"),
              std::string::npos) << t;
    EXPECT_NE(t.find("model.vpred          2.000 s   50.0%  (within "
                     "stage)\n"), std::string::npos) << t;
    EXPECT_NE(t.find("total                4.000 s  100.0%\n"),
              std::string::npos) << t;
    // Sections that never ran are left out.
    EXPECT_EQ(t.find("stage.fetch"), std::string::npos) << t;
}

TEST(Profiler, SectionNamesAreDotted)
{
    EXPECT_STREQ(prof::sectionName(prof::StageFetch), "stage.fetch");
    EXPECT_STREQ(prof::sectionName(prof::ModelVpred), "model.vpred");
    EXPECT_STREQ(prof::sectionName(prof::WarmRestore), "warm.restore");
}

// --- Pipetrace -------------------------------------------------------------

TEST(PipeTrace, CanonicalByteStable)
{
    const std::string a =
        traceOf("Baseline_4_48", "186.crafty", PipeTracer::Format::Canonical);
    const std::string b =
        traceOf("Baseline_4_48", "186.crafty", PipeTracer::Format::Canonical);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(PipeTrace, CanonicalCarriesFullLifecycle)
{
    // hmmer's random data makes confident value predictions go wrong,
    // and VP-mispredict recovery is the one pipeline path that
    // squashes fetched µops (branch recovery stalls fetch instead),
    // so this cell exercises the entire event vocabulary.
    const std::string t = traceOf("EOLE_4_64", "456.hmmer",
                                  PipeTracer::Format::Canonical,
                                  20000, 30000);
    for (const char *ev : {" fetch ", " rename", " dispatch", " issue",
                           " exec", " complete", " commit", " squash"}) {
        EXPECT_NE(t.find(ev), std::string::npos) << ev;
    }
    EXPECT_NE(t.find("pc=0x"), std::string::npos);
    EXPECT_NE(t.find("op="), std::string::npos);
    for (const std::string &line : splitLines(t)) {
        unsigned long long cycle = 0, seq = 0;
        char event[32] = {};
        ASSERT_GE(std::sscanf(line.c_str(), "%llu %llu %31s", &cycle,
                              &seq, event), 3) << line;
    }
}

TEST(PipeTrace, VpAndLeAnnotations)
{
    // Long enough for FPC confidence counters to saturate: short
    // traces are all vp=unconf.
    const std::string t = traceOf("EOLE_4_64", "164.gzip",
                                  PipeTracer::Format::Canonical,
                                  20000, 30000);
    // VP disposition at fetch, outcome at commit; EE/LE disposition at
    // rename and LE execution in the pre-commit stage.
    EXPECT_NE(t.find("vp=conf"), std::string::npos);
    EXPECT_NE(t.find("vp=ok"), std::string::npos);
    EXPECT_NE(t.find("rename ee"), std::string::npos);
    EXPECT_NE(t.find("le="), std::string::npos);
}

TEST(PipeTrace, RangeFilterBoundsSeqNums)
{
    const std::string t =
        traceOf("Baseline_4_48", "164.gzip", PipeTracer::Format::Canonical,
                500, 1500, 100, 140);
    EXPECT_FALSE(t.empty());
    for (const std::string &line : splitLines(t)) {
        unsigned long long cycle = 0, seq = 0;
        ASSERT_EQ(std::sscanf(line.c_str(), "%llu %llu", &cycle, &seq),
                  2) << line;
        EXPECT_GE(seq, 100u) << line;
        EXPECT_LT(seq, 140u) << line;
    }
}

TEST(PipeTrace, KanataOpensAndClosesEveryRecord)
{
    const std::string t = traceOf("EOLE_4_64", "456.hmmer",
                                  PipeTracer::Format::Kanata,
                                  20000, 30000);
    const std::vector<std::string> lines = splitLines(t);
    ASSERT_FALSE(lines.empty());
    EXPECT_EQ(lines[0], "Kanata\t0004");
    ASSERT_GE(lines.size(), 2u);
    EXPECT_EQ(lines[1].rfind("C=\t", 0), 0u);

    std::size_t opens = 0, retires = 0, flushes = 0;
    for (const std::string &line : lines) {
        if (line.rfind("I\t", 0) == 0)
            ++opens;
        else if (line.rfind("R\t", 0) == 0)
            line.back() == '1' ? ++flushes : ++retires;
    }
    EXPECT_GT(opens, 0u);
    EXPECT_GT(retires, 0u);
    // VP-mispredict recovery squashes in-flight µops: they close as
    // flushed.
    EXPECT_GT(flushes, 0u);
    // No record closes twice, and the only records left open at the
    // end are the in-flight window when the run stopped.
    ASSERT_GE(opens, retires + flushes);
    EXPECT_LE(opens - (retires + flushes), 1024u);
}

TEST(PipeTrace, ObserversNeverPerturbArtifacts)
{
    const ExperimentPlan p =
        oneCellPlan("Baseline_4_48", "164.gzip", 500, 2000);
    const PlanResult plain = runPlan(p);

    const std::string telem_path = scratchFile("telem_artifact");
    std::ostringstream trace_os;
    PipeTracer tracer(trace_os, PipeTracer::Format::Kanata);
    {
        TelemetrySink sink(telem_path);
        SweepOptions opt;
        opt.tracer = &tracer;
        opt.telemetry = &sink;
        const PlanResult observed = runPlan(p, opt);
        EXPECT_EQ(jsonArtifactString(observed), jsonArtifactString(plain));
    }
    EXPECT_FALSE(trace_os.str().empty());
    std::filesystem::remove(telem_path);
}

// --- Telemetry -------------------------------------------------------------

TEST(Telemetry, RoundTripWithInjectedFailure)
{
    const std::string path = scratchFile("roundtrip");
    {
        TelemetrySink sink(path);
        sink.runStart("run", "fig12", 1, 1000, 5000, "EOLE", "", 4, 2,
                      -1, -1);
        sink.cellQueued("EOLE_4_64", "164.gzip");
        sink.cellQueued("EOLE_4_64", "186.crafty");
        sink.jobStart("cell", "EOLE_4_64", "164.gzip", 0);
        sink.jobFinish("cell", "EOLE_4_64", "164.gzip", 0, 12.5, true);
        sink.jobStart("cell", "EOLE_4_64", "186.crafty", 1);
        sink.jobFinish("cell", "EOLE_4_64", "186.crafty", 1, 3.25,
                       /*ok=*/false);
        sink.storeCounts(3, 1);
        sink.runAborted("injected failure");
    }

    const std::vector<TelemetryEvent> evs = readTelemetry(path);
    ASSERT_EQ(evs.size(), 9u);
    EXPECT_EQ(evs[0].ev, "run_start");
    EXPECT_EQ(evs[0].str("plan"), "fig12");
    EXPECT_EQ(evs[0].str("filter"), "EOLE");
    EXPECT_EQ(evs[0].num("warmup"), 1000);
    EXPECT_EQ(evs[0].num("cells"), 2);
    EXPECT_FALSE(evs[0].str("host").empty());
    EXPECT_FALSE(evs[0].str("build").empty());
    // Unsharded runs omit the shard fields entirely.
    EXPECT_EQ(evs[0].nums.count("shard_hosts"), 0u);
    EXPECT_EQ(evs[4].ev, "job_finish");
    EXPECT_EQ(evs[4].num("ok"), 1);
    EXPECT_DOUBLE_EQ(evs[4].num("wall_ms"), 12.5);
    EXPECT_EQ(evs[6].ev, "job_finish");
    EXPECT_EQ(evs[6].num("ok"), 0);
    EXPECT_EQ(evs[7].ev, "store");
    EXPECT_EQ(evs[7].num("hits"), 3);
    EXPECT_EQ(evs.back().ev, "run_aborted");
    EXPECT_EQ(evs.back().str("reason"), "injected failure");

    // Timestamps are monotone within a stream.
    for (std::size_t i = 1; i < evs.size(); ++i)
        EXPECT_GE(evs[i].num("t_ms"), evs[i - 1].num("t_ms"));

    std::ostringstream sum;
    summarizeTelemetry({path}, sum);
    const std::string s = sum.str();
    EXPECT_NE(s.find("1 aborted"), std::string::npos) << s;
    EXPECT_NE(s.find("2 (1 ok)"), std::string::npos) << s;
    EXPECT_NE(s.find("EOLE_4_64/164.gzip"), std::string::npos) << s;
    EXPECT_NE(s.find("EOLE_4_64/186.crafty"), std::string::npos) << s;
    EXPECT_NE(s.find("store: 3 cached, 1 computed"), std::string::npos)
        << s;
    std::filesystem::remove(path);
}

TEST(Telemetry, SweepEmitsFullLifecycle)
{
    SimConfig a, b;
    ASSERT_TRUE(configs::findNamed("Baseline_4_48", &a));
    ASSERT_TRUE(configs::findNamed("EOLE_4_64_2banks", &b));
    ExperimentPlan p;
    p.name = "obs";
    p.configs = {a, b};
    p.workloads = {"164.gzip"};
    p.warmup = 500;
    p.measure = 1500;

    const std::string path = scratchFile("sweep");
    {
        TelemetrySink sink(path);
        SweepOptions opt;
        opt.telemetry = &sink;
        runPlan(p, opt);
        sink.runFinish(2);
    }

    std::set<std::string> queued, finished;
    std::size_t starts = 0;
    bool sawCache = false;
    for (const TelemetryEvent &ev : readTelemetry(path)) {
        if (ev.ev == "cell_queued") {
            queued.insert(ev.str("config") + "/" + ev.str("workload"));
        } else if (ev.ev == "job_start") {
            ++starts;
            EXPECT_EQ(ev.str("kind"), "cell");
            EXPECT_GE(ev.num("worker"), 0);
        } else if (ev.ev == "job_finish") {
            finished.insert(ev.str("config") + "/" + ev.str("workload"));
            EXPECT_EQ(ev.num("ok"), 1);
            EXPECT_GT(ev.num("wall_ms"), 0);
        } else if (ev.ev == "trace_cache") {
            sawCache = true;
            // Two configs share one workload: 1 recording, 1 replay.
            EXPECT_EQ(ev.num("hits"), 1);
            EXPECT_EQ(ev.num("misses"), 1);
        }
    }
    const std::set<std::string> expect = {"Baseline_4_48/164.gzip",
                                          "EOLE_4_64_2banks/164.gzip"};
    EXPECT_EQ(queued, expect);
    EXPECT_EQ(finished, expect);
    EXPECT_EQ(starts, 2u);
    EXPECT_TRUE(sawCache);
    std::filesystem::remove(path);
}

TEST(Telemetry, StoreServedRunsReportTheTraceCacheAsTheyAlwaysDid)
{
    // Against a warm store no job runs. A run then reports no
    // trace_cache event at all, while `ckpt save` (saveCheckpoints)
    // still reports one, all zero.
    const ExperimentPlan p = oneCellPlan("EOLE_4_64", "164.gzip", 500, 4000);
    const SampleSpec spec = parseSampleSpec("2:1000:500");
    const std::string dir = "test_obs_store_served_dir.tmp";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir + "/ckpts");
    const auto cacheEvents = [&](bool save) {
        const std::string path = scratchFile("store_served");
        {
            Store store(dir + "/store");
            TelemetrySink sink(path);
            SweepOptions opt;
            opt.store = &store;
            opt.telemetry = &sink;
            if (save)
                saveCheckpoints(p, spec, opt, dir + "/ckpts");
            else
                runPlan(p, opt);
        }
        std::vector<TelemetryEvent> events;
        for (const TelemetryEvent &ev : readTelemetry(path)) {
            if (ev.ev == "trace_cache")
                events.push_back(ev);
        }
        std::filesystem::remove(path);
        return events;
    };

    EXPECT_EQ(cacheEvents(false).size(), 1u);  // cold: the cell ran
    EXPECT_TRUE(cacheEvents(false).empty());   // warm: no job ran
    EXPECT_EQ(cacheEvents(true).size(), 1u);   // cold save
    const std::vector<TelemetryEvent> warm = cacheEvents(true);
    ASSERT_EQ(warm.size(), 1u);
    EXPECT_EQ(warm[0].num("hits"), 0);
    EXPECT_EQ(warm[0].num("misses"), 0);
    std::filesystem::remove_all(dir);
}

TEST(Telemetry, ProgressHookSeesTheWholeCellOfAFullRun)
{
    // Full runs hand the hook the cell's own RunResult, config map
    // included; warm and interval jobs report a partial one.
    const ExperimentPlan p = oneCellPlan("EOLE_4_64", "164.gzip", 500, 1500);
    SweepOptions opt;
    std::size_t calls = 0;
    opt.progress = [&](std::size_t done, std::size_t total,
                       const RunResult &cell) {
        ++calls;
        EXPECT_EQ(done, 1u);
        EXPECT_EQ(total, 1u);
        EXPECT_FALSE(cell.params.empty());
        EXPECT_GT(cell.stats.get("committed_uops"), 0.0);
    };
    const PlanResult result = runPlan(p, opt);
    EXPECT_EQ(calls, 1u);
    ASSERT_EQ(result.cells.size(), 1u);
    EXPECT_FALSE(result.cells[0].params.empty());
}

TEST(TraceCache, CountsHitsAndMisses)
{
    TraceCache cache;
    Workload w = workloads::build("164.gzip");
    EXPECT_EQ(cache.hitCount(), 0u);
    EXPECT_EQ(cache.missCount(), 0u);
    cache.get(w, 1000);
    EXPECT_EQ(cache.hitCount(), 0u);
    EXPECT_EQ(cache.missCount(), 1u);
    cache.get(w, 1000);
    EXPECT_EQ(cache.hitCount(), 1u);
    EXPECT_EQ(cache.missCount(), 1u);
}

// --- Build provenance ------------------------------------------------------

TEST(BuildInfo, StampedIntoArtifacts)
{
    const std::string &info = buildInfoString();
    EXPECT_FALSE(info.empty());
    EXPECT_EQ(info, buildInfoString());  // stable within one binary

    PlanResult result;
    result.plan = "obs";
    EXPECT_NE(jsonArtifactString(result).find(
                  "\"build\": \"" + info + "\""),
              std::string::npos);
}

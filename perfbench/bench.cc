/**
 * perfbench: one workload of the repository benchmark, run in a
 * process of its own (perfbench/run.py spawns it and charges peak RSS
 * and crashes to that workload).
 *
 * The program links the simulator library and calls only its public
 * API. Each workload repeats a fixed amount of work ("a round") until
 * --seconds have passed; every round redoes its set-up, so set-up and
 * the timed region each get a median over rounds. Every round also
 * checks the simulator's outputs; the counts of attempted and failed
 * operations feed the result.
 *
 * With --trace 1 the program instead reports per-layer numbers: it runs
 * the same rounds untraced and then traced, recording a span around
 * every call it makes into a library module, and then runs small
 * probes for the layers the workload reaches only from inside the
 * library. Spans are kept in memory and written as JSON lines when the
 * run ends.
 *
 * Output: report lines, then one JSON object on the last line of
 * stdout: {"correct", "attempted", "failed", "metrics", "context"}.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bpred/branch_unit.hh"
#include "common/build_info.hh"
#include "common/hash.hh"
#include "common/profiler.hh"
#include "isa/checkpoint.hh"
#include "mem/hierarchy.hh"
#include "pipeline/core.hh"
#include "pipeline/pipeline_state.hh"
#include "sim/artifact.hh"
#include "sim/configs.hh"
#include "sim/experiment.hh"
#include "sim/json.hh"
#include "sim/params.hh"
#include "sim/plan.hh"
#include "sim/plans.hh"
#include "sim/sample/sample.hh"
#include "sim/shard.hh"
#include "sim/store.hh"
#include "sim/sweep.hh"
#include "sim/telemetry.hh"
#include "trace/rv64_ingest.hh"
#include "trace/trace_file.hh"
#include "vpred/value_predictor.hh"
#include "workloads/workload.hh"

namespace fs = std::filesystem;
using namespace eole;

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point origin = Clock::now();

double
wallNow()
{
    return std::chrono::duration<double>(Clock::now() - origin).count();
}

/** CPU seconds of this process, summed over all its threads. */
double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/** Nearest-rank percentile, @p p in (0, 100]. */
double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    std::size_t rank =
        static_cast<std::size_t>(std::ceil(p / 100.0 * double(xs.size())));
    rank = std::clamp<std::size_t>(rank, 1, xs.size());
    return xs[rank - 1];
}

// --- Spans -----------------------------------------------------------------

/** One traced call: its name is "<module>.<call>"; the module is the
 *  layer the span's self time is charged to. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    std::string op;  //!< operation id, shared by the spans of one operation
};

/** In-memory span recorder. The program is single-threaded (the
 *  library's worker pools run inside single spans), so a stack gives
 *  each span its parent. */
struct Tracer
{
    bool enabled = false;
    std::string op;
    std::vector<Span> spans;
    std::vector<int> stack;

    int
    open(const std::string &name)
    {
        if (!enabled)
            return -1;
        spans.push_back(Span{name, wallNow(), 0.0,
                             stack.empty() ? -1 : stack.back(), op});
        stack.push_back(static_cast<int>(spans.size()) - 1);
        return stack.back();
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        spans[id].end = wallNow();
        stack.pop_back();
    }
};

Tracer tracer;

class SpanScope
{
  public:
    explicit SpanScope(const std::string &name) : id(tracer.open(name)) {}
    ~SpanScope() { tracer.close(id); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    int id;
};

/** Run @p f inside a span named @p name. */
template <class F>
auto
traced(const std::string &name, F &&f)
{
    SpanScope scope(name);
    return f();
}

std::string
layerOf(const std::string &span_name)
{
    return span_name.substr(0, span_name.find('.'));
}

// --- Checks and results ------------------------------------------------------

/** Attempted/failed operation counts plus the first failure messages. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> messages;

    /** Count one operation; it fails when any of its checks failed. */
    void
    operation(const std::vector<std::string> &problems)
    {
        ++attempted;
        if (problems.empty())
            return;
        ++failed;
        for (const std::string &p : problems) {
            if (messages.size() < 20)
                messages.push_back(p);
        }
    }

    /** Count one operation with a single check. */
    void
    check(bool ok, const std::string &problem)
    {
        operation(ok ? std::vector<std::string>{}
                     : std::vector<std::string>{problem});
    }
};

/** Metrics in insertion order. */
struct Metrics
{
    std::vector<std::pair<std::string, std::pair<double, std::string>>> items;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        items.emplace_back(name, std::make_pair(value, unit));
    }
};

/** Digest of every simulated statistic of @p result: the evidence that
 *  a change left simulated behaviour bit-identical. Built from the
 *  cells only, so the build string artifacts carry does not enter. */
std::string
statsDigest(const PlanResult &result)
{
    std::ostringstream os;
    for (const RunResult &cell : result.cells) {
        os << cell.config << '\t' << cell.workload << '\t' << cell.seed
           << '\n';
        for (const auto &[name, value] : cell.stats.all())
            os << name << '=' << jsonNumberText(value) << '\n';
    }
    return sha256Hex(os.str());
}

std::vector<std::string>
compareStats(const std::string &what, const StatRecord &a,
             const StatRecord &b)
{
    if (a.all() == b.all())
        return {};
    for (const auto &[name, value] : a.all()) {
        if (!b.has(name) || b.get(name) != value) {
            return {what + ": stat " + name + " differs ("
                    + jsonNumberText(value) + " vs "
                    + (b.has(name) ? jsonNumberText(b.get(name)) : "absent")
                    + ")"};
        }
    }
    return {what + ": stat sets differ"};
}

// --- Workload definitions ----------------------------------------------------

/** Run lengths. "full" is the benchmark; "smoke" is the self-test's
 *  tiny version of the same work. */
struct Sizes
{
    std::uint64_t warmup = 0;          //!< discarded detailed warmup µ-ops
    std::uint64_t measure = 0;         //!< measured µ-ops per full cell
    std::uint64_t sampledMeasure = 0;  //!< measured region, sampled runs
    SampleSpec sample;
};

Sizes
sizesFor(const std::string &size)
{
    Sizes s;
    if (size == "smoke") {
        s.warmup = 2000;
        s.measure = 6000;
        s.sampledMeasure = 40000;
        s.sample = parseSampleSpec("4:2000:1000");
    } else {
        s.warmup = 40000;
        s.measure = 120000;
        s.sampledMeasure = 600000;
        s.sample = parseSampleSpec("8:10000:5000");
    }
    return s;
}

/** The sweep mix: two compute and two memory cells generated, plus one
 *  workload replayed from a trace file recorded during set-up. */
const std::vector<std::string> sweepGenerated = {
    "173.applu", "456.hmmer", "429.mcf", "197.parser"};
const std::string sweepFileWorkload = "186.crafty";

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string size = "full";
    std::string root = ".";     //!< checkout root (for tests/data)
    std::string outDir = ".";   //!< scratch files and the span dump
    int jobs = 4;
};

std::vector<SimConfig>
fig12Configs()
{
    return plans::get("fig12").configs;
}

std::uint64_t
maxCyclesFor(std::uint64_t uops)
{
    return uops * 60 + 1000000;
}

/** One full-detail cell the program runs itself through Core. */
struct DirectCell
{
    SimConfig cfg;  //!< seed already resolved to the cell seed
    std::string workload;
    std::unique_ptr<Core> core;
    StatRecord stats;
    std::uint64_t measured = 0;
    double runSeconds = 0.0;  //!< the measured Core::run call
    std::vector<std::string> problems;
};

/** A run asked for @p target commits may overshoot by less than one
 *  cycle's commit width (the tick loop stops at a cycle boundary); it
 *  must never stop short. */
std::vector<std::string>
commitCheck(const std::string &what, double committed, double target,
            int commit_width)
{
    if (committed >= target && committed < target + commit_width)
        return {};
    return {what + ": committed " + jsonNumberText(committed) + " µ-ops for a "
            "target of " + jsonNumberText(target)};
}

SimConfig
cellConfig(const SimConfig &base, std::uint64_t plan_seed,
           const std::string &workload)
{
    SimConfig cfg = base;
    cfg.seed = jobSeed(plan_seed, base.seed, base.name, workload);
    return cfg;
}

/** Construct the cell's core on @p wl and run the discarded warmup. */
void
setUpCell(DirectCell &cell, const Workload &wl, const Sizes &sz)
{
    cell.core = traced("pipeline.Core::Core", [&] {
        return std::make_unique<Core>(cell.cfg, wl);
    });
    const std::uint64_t warmed = traced("pipeline.Core::run", [&] {
        return cell.core->run(sz.warmup,
                              maxCyclesFor(sz.warmup + sz.measure));
    });
    for (std::string &p :
         commitCheck(cell.cfg.name + "/" + cell.workload + " warmup",
                     double(warmed), double(sz.warmup),
                     cell.cfg.commitWidth))
        cell.problems.push_back(std::move(p));
    traced("pipeline.Core::resetStats", [&] { cell.core->resetStats(); });
}

void
measureCell(DirectCell &cell, const Sizes &sz)
{
    const double t0 = wallNow();
    cell.measured = traced("pipeline.Core::run", [&] {
        return cell.core->run(sz.measure,
                              maxCyclesFor(sz.warmup + sz.measure));
    });
    cell.runSeconds = wallNow() - t0;
}

void
finishCell(DirectCell &cell, const Sizes &sz)
{
    for (std::string &p :
         commitCheck(cell.cfg.name + "/" + cell.workload + " measure",
                     double(cell.measured), double(sz.measure),
                     cell.cfg.commitWidth))
        cell.problems.push_back(std::move(p));
    cell.stats = traced("pipeline.Core::record",
                        [&] { return cell.core->record(); });
    cell.core.reset();
}

/** Trace length a full-detail cell of these configs consumes. */
std::uint64_t
fullTraceUops(const std::vector<SimConfig> &cfgs, const Sizes &sz)
{
    ExperimentPlan sizing;
    sizing.configs = cfgs;
    return sz.warmup + sz.measure + maxInflightUops(sizing);
}

/** Run one cell start to finish on a freshly frozen trace. */
DirectCell
runDirectCell(const SimConfig &base, const std::string &workload,
              const Options &opt, const Sizes &sz)
{
    DirectCell cell;
    cell.cfg = cellConfig(base, opt.seed, workload);
    cell.workload = workload;
    Workload wl = traced("workloads.build",
                         [&] { return workloads::build(workload); });
    wl.frozen = traced("workloads.freeze", [&] {
        return wl.freeze(fullTraceUops(fig12Configs(), sz));
    });
    setUpCell(cell, wl, sz);
    measureCell(cell, sz);
    finishCell(cell, sz);
    return cell;
}

RunResult
asRunResult(const DirectCell &cell, const SimConfig &base)
{
    RunResult r;
    r.config = cell.cfg.name;
    r.workload = cell.workload;
    r.seed = cell.cfg.seed;
    r.params = configKeyValues(base);
    r.stats = cell.stats;
    return r;
}

// --- Rounds ------------------------------------------------------------------

struct RoundTimes
{
    double setup = 0.0;  //!< seconds before the timed region
    double wall = 0.0;   //!< wall seconds of the timed region
    double cpu = 0.0;    //!< CPU seconds of the timed region
};

/** Marks the timed region of one round. */
class TimedRegion
{
  public:
    explicit TimedRegion(RoundTimes &t)
        : times(t), span(tracer.open("bench.timed")), w0(wallNow()),
          c0(cpuNow())
    {}

    ~TimedRegion()
    {
        times.cpu += cpuNow() - c0;
        times.wall += wallNow() - w0;
        tracer.close(span);
    }

    TimedRegion(const TimedRegion &) = delete;
    TimedRegion &operator=(const TimedRegion &) = delete;

  private:
    RoundTimes &times;
    int span;
    double w0;
    double c0;
};

/** The simulated work of one round, for the rate metrics. */
struct RoundWork
{
    double uops = 0.0;    //!< simulated µ-ops the timed region covers
    double cycles = 0.0;  //!< simulated cycles (measured regions)
};

/** What every workload implements. */
class BenchWorkload
{
  public:
    virtual ~BenchWorkload() = default;

    /** One round: set-up, timed region, checks. */
    virtual RoundTimes round(int index, Outcome &outcome) = 0;

    /** Simulated work of one round (identical across rounds). */
    virtual RoundWork work() const = 0;

    /** Checks that run once, after the rounds (untimed). */
    virtual void verify(Outcome &outcome) { (void)outcome; }

    /** The round-0 result: digest, context statistics, probes. */
    virtual const PlanResult &result() const = 0;

    /** Workload names the work draws traces from. */
    virtual std::vector<std::string> traceWorkloads() const = 0;

    /** µ-ops the workload's engine records per trace. */
    virtual std::uint64_t traceUops() const = 0;

    /** Per-layer numbers only the workload itself can produce (from
     *  its traced rounds and telemetry). */
    virtual void layerMetrics(Metrics &m) = 0;

    /** Cells whose statistics give the simulated-context metrics and
     *  the per-config pipeline rates (run directly through Core). */
    virtual const std::vector<DirectCell> &directCells() = 0;
};

// --- sweep_full / sweep_sampled ------------------------------------------------

/** Job events of one telemetry stream. */
struct JobStats
{
    std::vector<double> ms;              //!< every job's wall time
    std::vector<double> intervalMs;      //!< jobs of the measured kind
    double traceCacheHits = 0.0;
    double traceCacheMisses = 0.0;
    int workers = 0;
};

JobStats
readJobs(const std::string &path, const std::string &measured_kind)
{
    JobStats js;
    for (const TelemetryEvent &ev : readTelemetry(path)) {
        if (ev.ev == "job_finish") {
            const double ms = ev.num("wall_ms");
            js.ms.push_back(ms);
            if (ev.str("kind") == measured_kind)
                js.intervalMs.push_back(ms);
            js.workers = std::max(js.workers, int(ev.num("worker")) + 1);
        } else if (ev.ev == "trace_cache") {
            js.traceCacheHits += ev.num("hits");
            js.traceCacheMisses += ev.num("misses");
        }
    }
    return js;
}

/** Shared by both sweeps: the plan over the sweep mix, and the set-up
 *  that records the mix's file-backed workload. */
class SweepWorkload : public BenchWorkload
{
  public:
    SweepWorkload(std::string name_, const Options &o, bool sampled_)
        : name(std::move(name_)), opt(o), sz(sizesFor(o.size)),
          sampled(sampled_)
    {
        plan.name = "perfbench_" + name;
        plan.configs = fig12Configs();
        plan.workloads = sweepGenerated;
        plan.workloads.push_back(sweepFileWorkload);
        plan.seed = opt.seed;
        plan.warmup = sz.warmup;
        plan.measure = sampled ? sz.sampledMeasure : sz.measure;
        dir = opt.outDir + "/" + name;
        fs::remove_all(dir);
        fs::create_directories(dir);
    }

    ~SweepWorkload() override
    {
        workloads::clearBoundTraces();
        std::error_code ec;
        fs::remove_all(dir, ec);
    }

    SweepWorkload(const SweepWorkload &) = delete;
    SweepWorkload &operator=(const SweepWorkload &) = delete;

    std::uint64_t
    traceUops() const override
    {
        // Long enough for every cell and, when sampled, for the
        // furthest interval the placement can emit.
        std::uint64_t need =
            plan.warmup + plan.measure + maxInflightUops(plan);
        if (sampled)
            need += sz.sample.intervalUops + sz.sample.detailUops;
        return need;
    }

    std::vector<std::string>
    traceWorkloads() const override
    {
        return plan.workloads;
    }

  protected:
    /** Record the file-backed workload, write it, and bind it so the
     *  plan's cell of that name replays the file. */
    void
    setUpTraceFile()
    {
        workloads::clearBoundTraces();
        if (!tracePath.empty())
            fs::remove(tracePath);
        // A fresh name per round: the previous file may still be
        // mapped by a trace the library has not released yet.
        tracePath = dir + "/" + sweepFileWorkload + "-"
            + std::to_string(traceFiles++) + ".trace";
        const std::string &path = tracePath;
        Workload wl = traced("workloads.build", [&] {
            return workloads::build(sweepFileWorkload);
        });
        auto frozen = traced("workloads.freeze",
                             [&] { return wl.freeze(traceUops()); });
        std::string err;
        const bool wrote = traced("trace.writeTraceFile", [&] {
            return writeTraceFile(*frozen, path, "perfbench", &err);
        });
        if (!wrote)
            fatal("perfbench: writing %s: %s", path.c_str(), err.c_str());
        std::string bound;
        const bool ok = traced("workloads.bindTraceFile", [&] {
            return workloads::bindTraceFile(path, &bound, &err);
        });
        if (!ok || bound != sweepFileWorkload)
            fatal("perfbench: binding %s: %s", path.c_str(), err.c_str());
    }

    int
    commitWidth(const std::string &config) const
    {
        for (const SimConfig &c : plan.configs) {
            if (c.name == config)
                return c.commitWidth;
        }
        return 1;
    }

    SweepOptions
    sweepOptions(TelemetrySink *sink) const
    {
        SweepOptions so;
        so.jobs = opt.jobs;
        so.telemetry = sink;
        return so;
    }

    /** A telemetry sink for one pass of a traced round, else null. */
    std::unique_ptr<TelemetrySink>
    sinkFor(const std::string &pass)
    {
        if (!tracer.enabled)
            return nullptr;
        return std::make_unique<TelemetrySink>(dir + "/" + pass
                                               + ".jsonl");
    }

    void
    jobMetrics(Metrics &m, const JobStats &js, double pass_wall,
               double pass_uops)
    {
        double busy = 0.0;
        for (double ms : js.ms)
            busy += ms * 1e-3;
        m.set("sim.worker_busy_frac",
              busy / (std::max(js.workers, 1) * pass_wall), "frac");
        m.set("sim.critical_path_s",
              *std::max_element(js.ms.begin(), js.ms.end()) * 1e-3, "s");
        m.set("sim.per_worker_uops_per_s", pass_uops / busy, "uops/s");
        m.set("sim.trace_cache_hits", js.traceCacheHits, "count");
        m.set("sim.trace_cache_misses", js.traceCacheMisses, "count");
        m.set("sim.interval_ms_p50", percentile(js.intervalMs, 50), "ms");
        m.set("sim.interval_ms_p97", percentile(js.intervalMs, 97), "ms");
    }

    /** Per-cell comparison of @p got against @p want, one operation per
     *  cell. */
    void
    compareResults(const std::string &what, const PlanResult &got,
                   const PlanResult &want, Outcome &outcome,
                   const std::function<std::vector<std::string>(
                       const RunResult &)> &cell_check)
    {
        for (std::size_t i = 0; i < want.cells.size(); ++i) {
            const RunResult &w = want.cells[i];
            std::vector<std::string> problems;
            if (i >= got.cells.size() || got.cells[i].config != w.config
                || got.cells[i].workload != w.workload) {
                problems.push_back(what + ": cell " + w.config + "/"
                                   + w.workload + " missing");
            } else {
                problems = compareStats(
                    what + " " + w.config + "/" + w.workload,
                    got.cells[i].stats, w.stats);
                for (std::string &p : cell_check(got.cells[i]))
                    problems.push_back(std::move(p));
            }
            outcome.operation(problems);
        }
    }

    /** The generated and file-backed cells, run directly through Core
     *  at the full-run lengths (untimed, once). */
    const std::vector<DirectCell> &
    directCells() override
    {
        if (!direct.empty())
            return direct;
        // The file-backed name shadows the generator; unbind so the
        // direct run generates the workload from its program.
        workloads::clearBoundTraces();
        SpanScope s("bench.direct");
        for (const std::string &wname :
             {std::string("173.applu"), std::string("429.mcf"),
              sweepFileWorkload}) {
            for (const SimConfig &base : plan.configs) {
                tracer.op = "direct/" + base.name + "/" + wname;
                direct.push_back(runDirectCell(base, wname, opt, sz));
            }
        }
        return direct;
    }

    std::string name;
    Options opt;
    Sizes sz;
    bool sampled;
    ExperimentPlan plan;
    std::string dir;
    std::string tracePath;
    int traceFiles = 0;
    std::vector<DirectCell> direct;
};

/** runPlan cold against an empty Store, warm against the filled one,
 *  then as two shards that it merges. */
class SweepFull : public SweepWorkload
{
  public:
    explicit SweepFull(const Options &o) : SweepWorkload("sweep_full", o,
                                                         false)
    {}

    RoundTimes
    round(int index, Outcome &outcome) override
    {
        tracer.op = "round" + std::to_string(index);
        RoundTimes t;
        const std::string storeDir = dir + "/store";
        const double s0 = wallNow();
        {
            SpanScope setupSpan("bench.setup");
            setUpTraceFile();
            fs::remove_all(storeDir);
        }
        t.setup = wallNow() - s0;

        PlanResult cold, warm, merged;
        std::string coldJson, warmJson, mergedJson;
        std::unique_ptr<TelemetrySink> sink = sinkFor("cold");
        {
            TimedRegion timed(t);
            {
                auto store = traced("sim.Store::Store", [&] {
                    return std::make_unique<Store>(storeDir);
                });
                SweepOptions so = sweepOptions(sink.get());
                so.store = store.get();
                const double coldStart = wallNow();
                cold = traced("sim.runPlan", [&] {
                    return runPlan(plan, so);
                });
                coldWall = wallNow() - coldStart;
                coldJson = traced("sim.jsonArtifactString", [&] {
                    return jsonArtifactString(cold);
                });
                so.telemetry = nullptr;
                warm = traced("sim.runPlan", [&] {
                    return runPlan(plan, so);
                });
                warmJson = traced("sim.jsonArtifactString", [&] {
                    return jsonArtifactString(warm);
                });
                traced("sim.Store::~Store", [&] { store.reset(); });
            }
            std::vector<ShardArtifact> parts;
            for (std::uint64_t host = 0; host < 2; ++host) {
                SweepOptions so = sweepOptions(nullptr);
                so.shard = ShardSlice{2, host};
                const ShardArtifact part = traced("sim.runShard", [&] {
                    return runShard(plan, SampleSpec{}, so);
                });
                const std::string text = traced(
                    "sim.shardArtifactString",
                    [&] { return shardArtifactString(part); });
                std::istringstream is(text);
                std::string err;
                ShardArtifact &back = parts.emplace_back();
                if (!traced("sim.tryReadShardArtifact", [&] {
                        return tryReadShardArtifact(is, &back, &err);
                    }))
                    fatal("perfbench: shard partial: %s", err.c_str());
            }
            std::string err;
            if (!traced("sim.tryMergeShardArtifacts", [&] {
                    return tryMergeShardArtifacts(parts, &merged, &err);
                }))
                fatal("perfbench: %s", err.c_str());
            mergedJson = traced("sim.jsonArtifactString",
                                [&] { return jsonArtifactString(merged); });
        }
        sink.reset();
        if (tracer.enabled)
            jobs = readJobs(dir + "/cold.jsonl", "cell");

        if (index == 0)
            first = cold;
        const auto cellCheck = [&](const RunResult &c) {
            return commitCheck(c.config + "/" + c.workload,
                               c.stats.get("committed_uops"),
                               double(plan.measure), commitWidth(c.config));
        };
        const std::string r = "round " + std::to_string(index);
        compareResults(r + " cold vs round 0", cold, first, outcome,
                       cellCheck);
        compareResults(r + " warm-store", warm, cold, outcome, cellCheck);
        compareResults(r + " shard-merged", merged, cold, outcome,
                       cellCheck);
        // Byte equality of the artifacts themselves.
        outcome.check(warmJson == coldJson,
                      r + ": warm-store artifact differs");
        outcome.check(mergedJson == coldJson,
                      r + ": shard-merged artifact differs");
        outcome.check(warm.storeHits == cold.cells.size(),
                      r + ": warm run hit " + std::to_string(warm.storeHits)
                          + " of " + std::to_string(cold.cells.size()));
        return t;
    }

    RoundWork
    work() const override
    {
        // The cold and sharded passes each simulate the plan's nominal
        // span; the warm pass is served from the store.
        RoundWork w;
        const double cells = double(plan.gridSize());
        w.uops = 2.0 * cells * double(plan.warmup + plan.measure);
        for (const RunResult &c : first.cells)
            w.cycles += 2.0 * c.stats.get("cycles");
        return w;
    }

    void
    verify(Outcome &outcome) override
    {
        // A cell run directly through Core at the sweep's lengths and
        // seeds, and the generator-path twin of the file-backed cell, must
        // equal the sweep's cells.
        for (const DirectCell &cell : directCells()) {
            std::vector<std::string> problems = cell.problems;
            const RunResult *swept =
                first.find(cell.cfg.name, cell.workload);
            if (!swept) {
                problems.push_back("sweep has no cell " + cell.cfg.name
                                   + "/" + cell.workload);
            } else {
                for (std::string &p : compareStats(
                         "direct Core vs sweep " + cell.cfg.name + "/"
                             + cell.workload,
                         cell.stats, swept->stats))
                    problems.push_back(std::move(p));
            }
            outcome.operation(problems);
        }
    }

    const PlanResult &result() const override { return first; }

    void
    layerMetrics(Metrics &m) override
    {
        jobMetrics(m, jobs, coldWall,
                   double(plan.gridSize() * (plan.warmup + plan.measure)));
    }

  private:
    PlanResult first;
    JobStats jobs;
    double coldWall = 0.0;
};

/** A warm-once runSampledPlan over the sweep mix. */
class SweepSampled : public SweepWorkload
{
  public:
    explicit SweepSampled(const Options &o)
        : SweepWorkload("sweep_sampled", o, true)
    {}

    RoundTimes
    round(int index, Outcome &outcome) override
    {
        tracer.op = "round" + std::to_string(index);
        RoundTimes t;
        const double s0 = wallNow();
        {
            SpanScope setupSpan("bench.setup");
            setUpTraceFile();
        }
        t.setup = wallNow() - s0;

        PlanResult res;
        std::unique_ptr<TelemetrySink> sink = sinkFor("sampled");
        {
            TimedRegion timed(t);
            res = traced("sim.runSampledPlan", [&] {
                return runSampledPlan(plan, sz.sample,
                                      sweepOptions(sink.get()));
            });
            traced("sim.jsonArtifactString",
                   [&] { return jsonArtifactString(res); });
        }
        sink.reset();
        if (tracer.enabled) {
            jobs = readJobs(dir + "/sampled.jsonl", "interval");
            passWall = t.wall;
        }

        if (index == 0)
            first = res;
        const double n = double(sz.sample.intervals);
        compareResults(
            "round " + std::to_string(index) + " vs round 0", res, first,
            outcome, [&](const RunResult &c) {
                std::vector<std::string> p;
                const std::string id = c.config + "/" + c.workload;
                if (c.stats.get("sample_restored_intervals") != n)
                    p.push_back(id + ": sample_restored_intervals "
                                + jsonNumberText(c.stats.get(
                                    "sample_restored_intervals"))
                                + " != " + jsonNumberText(n));
                // Each interval may overshoot like any Core::run.
                for (std::string &q : commitCheck(
                         id, c.stats.get("committed_uops"),
                         n * double(sz.sample.intervalUops),
                         int(n) * (commitWidth(c.config) - 1) + 1))
                    p.push_back(std::move(q));
                return p;
            });
        return t;
    }

    RoundWork
    work() const override
    {
        RoundWork w;
        w.uops = double(plan.gridSize() * (plan.warmup + plan.measure));
        for (const RunResult &c : first.cells)
            w.cycles += c.stats.get("cycles");
        return w;
    }

    const PlanResult &result() const override { return first; }

    void
    layerMetrics(Metrics &m) override
    {
        jobMetrics(m, jobs, passWall, work().uops);
    }

  private:
    PlanResult first;
    JobStats jobs;
    double passWall = 0.0;
};

// --- Layer probes (traced runs only) -------------------------------------------

/** Simulated context: what the modelled machine did on the cells. */
void
contextMetrics(Metrics &m, const std::vector<DirectCell> &cells)
{
    double uops = 0, mispred = 0, eligible = 0, used = 0, correct = 0;
    double l1Hit = 0, l1Miss = 0, l2Hit = 0, l2Miss = 0, dram = 0;
    for (const DirectCell &c : cells) {
        const StatRecord &s = c.stats;
        uops += s.get("committed_uops");
        mispred += s.get("branch_mispredicts");
        if (c.cfg.vpEnabled()) {
            eligible += s.get("vp_eligible");
            used += s.get("vp_used");
            correct += s.get("vp_correct_used");
        }
        l1Hit += s.get("mem.l1d.hits");
        l1Miss += s.get("mem.l1d.misses");
        l2Hit += s.get("mem.l2.hits");
        l2Miss += s.get("mem.l2.misses");
        dram += s.get("mem.dram.reads");
    }
    m.set("bpred.mpki", 1000.0 * mispred / uops, "count");
    m.set("vpred.coverage", used / eligible, "frac");
    m.set("vpred.accuracy", correct / eligible, "frac");
    m.set("mem.l1d_miss_rate", l1Miss / (l1Hit + l1Miss), "frac");
    m.set("mem.l2_miss_rate", l2Miss / (l2Hit + l2Miss), "frac");
    m.set("mem.dram_reads_per_kuop", 1000.0 * dram / uops, "count");
}

/** Per-config detailed-pipeline rates from the measured Core::run of
 *  each cell, plus the simulated IPC (geomean over the cells). */
void
pipelineMetrics(Metrics &m, const std::vector<DirectCell> &cells)
{
    for (const SimConfig &cfg : fig12Configs()) {
        double secs = 0, uops = 0, cycles = 0;
        std::vector<double> ipcs;
        for (const DirectCell &c : cells) {
            if (c.cfg.name != cfg.name)
                continue;
            secs += c.runSeconds;
            uops += double(c.measured);
            cycles += c.stats.get("cycles");
            ipcs.push_back(c.stats.get("ipc"));
        }
        m.set("pipeline.uops_per_s." + cfg.name, uops / secs, "uops/s");
        m.set("pipeline.ns_per_cycle." + cfg.name, secs * 1e9 / cycles,
              "ns");
        m.set("pipeline.ipc." + cfg.name, geomean(ipcs), "count");
    }
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/** Trace recording, the trace file and RV64 ingestion. Returns the
 *  first workload's frozen trace for the component probes. */
std::shared_ptr<const FrozenTrace>
traceProbes(Metrics &m, BenchWorkload &bw, const Options &opt,
            Outcome &outcome)
{
    SpanScope s("bench.probe.trace");
    tracer.op = "probe/trace";
    workloads::clearBoundTraces();
    double freezeS = 0.0, uops = 0.0, bytes = 0.0;
    std::shared_ptr<const FrozenTrace> firstTrace;
    for (const std::string &wname : bw.traceWorkloads()) {
        Workload wl = traced("workloads.build",
                             [&] { return workloads::build(wname); });
        const double t0 = wallNow();
        auto frozen = traced("workloads.freeze",
                             [&] { return wl.freeze(bw.traceUops()); });
        freezeS += wallNow() - t0;
        uops += double(frozen->uops.size());
        bytes += double(frozen->bytes());
        if (!firstTrace)
            firstTrace = frozen;
    }
    m.set("workloads.freeze_s", freezeS, "s");
    m.set("workloads.freeze_uops_per_s", uops / freezeS, "uops/s");
    m.set("workloads.trace_mb", bytes / (1024.0 * 1024.0), "MB");

    const std::string path = opt.outDir + "/probe.trace";
    std::string err;
    double t0 = wallNow();
    if (!traced("trace.writeTraceFile", [&] {
            return writeTraceFile(*firstTrace, path, "perfbench", &err);
        }))
        fatal("perfbench: %s", err.c_str());
    m.set("trace.write_s", wallNow() - t0, "s");
    m.set("trace.file_mb", double(fs::file_size(path)) / (1024.0 * 1024.0),
          "MB");
    t0 = wallNow();
    auto loaded = traced("trace.loadTraceFile",
                         [&] { return loadTraceFile(path, &err); });
    m.set("trace.load_s", wallNow() - t0, "s");
    // Writing the loaded trace again must give the same bytes (the
    // format is canonical and checksummed).
    std::vector<std::string> problems;
    const std::string again = path + ".again";
    if (!loaded || !writeTraceFile(*loaded, again, "perfbench", &err)
        || readFile(again) != readFile(path))
        problems.push_back("trace file round trip differs: " + err);
    loaded.reset();
    fs::remove(path);
    fs::remove(again);

    double ingestS = 0.0;
    for (const char *log : {"bitops", "fib", "memsum"}) {
        const std::string p =
            opt.root + "/tests/data/rv64/" + std::string(log) + ".rvlog";
        t0 = wallNow();
        auto tr = traced("trace.ingestRv64LogFile", [&] {
            return ingestRv64LogFile(p, std::string("rv64:") + log, &err);
        });
        ingestS += wallNow() - t0;
        if (!tr || tr->uops.empty())
            problems.push_back("ingesting " + p + ": " + err);
    }
    m.set("trace.ingest_s", ingestS, "s");
    outcome.operation(problems);
    return firstTrace;
}

/** Time each warmable component's warmUpdate over @p trace. Components
 *  are timed in chunks so that three clock reads cover many µ-ops; the
 *  value predictor therefore sees branch history at most one chunk
 *  ahead, which leaves its per-µop cost representative. */
void
componentProbes(Metrics &m, const std::shared_ptr<const FrozenTrace> &trace,
                const std::string &wname)
{
    SpanScope s("bench.probe.components");
    tracer.op = "probe/components/" + wname;
    Workload wl = workloads::build(wname);
    wl.frozen = trace;
    const std::size_t n = trace->uops.size();
    const std::size_t chunk = 512;
    double bpredS = 0.0, memS = 0.0;
    int paths = 0;
    for (VpKind kind :
         {VpKind::LastValue, VpKind::Stride, VpKind::TwoDeltaStride,
          VpKind::Vtage, VpKind::Fcm, VpKind::HybridVtage2DStride}) {
        SimConfig cfg = configs::eole(4, 64);
        cfg.vp.kind = kind;
        auto st = std::make_unique<PipelineState>(cfg, wl);
        st->mem->syncWarmClock(0);
        double bu = 0.0, vp = 0.0, mem = 0.0;
        const auto timeChunk = [&](const char *span, double &acc,
                                   WarmableComponent &c, std::size_t b,
                                   std::size_t e) {
            SpanScope chunkSpan(span);
            const double t0 = wallNow();
            for (std::size_t k = b; k < e; ++k)
                c.warmUpdate(trace->uops[k]);
            acc += wallNow() - t0;
        };
        for (std::size_t i = 0; i < n; i += chunk) {
            const std::size_t e = std::min(n, i + chunk);
            timeChunk("bpred.BranchUnit::warmUpdate", bu, *st->bu, i, e);
            timeChunk("vpred.ValuePredictor::warmUpdate", vp, *st->vp, i, e);
            timeChunk("mem.MemHierarchy::warmUpdate", mem, *st->mem, i, e);
        }
        m.set(std::string("vpred.warm_ns_per_uop.") + vpKindName(kind),
              vp * 1e9 / double(n), "ns");
        bpredS += bu;
        memS += mem;
        ++paths;
    }
    m.set("bpred.warm_ns_per_uop", bpredS * 1e9 / double(n * paths), "ns");
    m.set("mem.warm_ns_per_uop", memS * 1e9 / double(n * paths), "ns");
}

/** Core construction, functional warming and warm-state checkpoints
 *  (capture, serialize, restore) for every fig12 config. */
void
coreProbes(Metrics &m, const std::shared_ptr<const FrozenTrace> &trace,
           const std::string &wname, const Options &opt, Outcome &outcome)
{
    SpanScope s("bench.probe.core");
    Workload wl = workloads::build(wname);
    wl.frozen = trace;
    const std::uint64_t n = trace->uops.size();
    double constructS = 0, warmS = 0, capS = 0, serS = 0, resS = 0;
    double bytes = 0;
    std::vector<std::string> problems;
    const std::vector<SimConfig> cfgs = fig12Configs();
    for (const SimConfig &base : cfgs) {
        tracer.op = "probe/core/" + base.name + "/" + wname;
        const SimConfig cfg = cellConfig(base, opt.seed, wname);
        double t0 = wallNow();
        auto core = traced("pipeline.Core::Core",
                           [&] { return std::make_unique<Core>(cfg, wl); });
        constructS += wallNow() - t0;
        t0 = wallNow();
        traced("pipeline.Core::functionalWarm",
               [&] { core->functionalWarm(*trace, 0, n); });
        warmS += wallNow() - t0;

        t0 = wallNow();
        Checkpoint ck = traced("isa.captureAt",
                               [&] { return captureAt(*trace, wname, n); });
        traced("pipeline.Core::captureWarmState",
               [&] { core->captureWarmState(ck); });
        capS += wallNow() - t0;
        t0 = wallNow();
        const std::string text =
            traced("isa.checkpointString", [&] { return checkpointString(ck); });
        serS += wallNow() - t0;
        bytes += double(text.size());

        t0 = wallNow();
        Checkpoint back = traced("isa.checkpointFromString",
                                 [&] { return checkpointFromString(text); });
        auto fresh = traced("pipeline.Core::Core",
                            [&] { return std::make_unique<Core>(cfg, wl); });
        traced("pipeline.Core::restoreWarmState",
               [&] { fresh->restoreWarmState(back); });
        resS += wallNow() - t0;

        Checkpoint again = ck;
        fresh->captureWarmState(again);
        if (!(back == ck) || again.uarch != ck.uarch)
            problems.push_back(base.name + ": checkpoint round trip or "
                               "restore differs");
    }
    const double k = double(cfgs.size());
    m.set("pipeline.construct_ms", constructS * 1e3 / k, "ms");
    m.set("pipeline.functional_warm_uops_per_s", double(n) * k / warmS,
          "uops/s");
    m.set("isa.ckpt_capture_s", capS / k, "s");
    m.set("isa.ckpt_serialize_s", serS / k, "s");
    m.set("isa.ckpt_restore_s", resS / k, "s");
    m.set("isa.ckpt_bytes", bytes / k, "bytes");
    outcome.operation(problems);
}

/** Artifact writing, Store put/get and shard split/merge on the
 *  workload's round-0 result. */
void
resultProbes(Metrics &m, const PlanResult &result, const Options &opt,
             Outcome &outcome)
{
    SpanScope s("bench.probe.results");
    tracer.op = "probe/results";
    std::vector<std::string> problems;
    const std::string base = opt.outDir + "/probe";
    fs::remove_all(base);
    fs::create_directories(base);

    double t0 = wallNow();
    std::string json;
    traced("sim.writeJsonArtifact", [&] {
        std::ofstream os(base + "/artifact.json");
        writeJsonArtifact(os, result);
    });
    m.set("sim.artifact_write_ms", (wallNow() - t0) * 1e3, "ms");
    json = jsonArtifactString(result);

    std::vector<std::string> hashes;
    {
        Store store(base + "/store");
        t0 = wallNow();
        traced("sim.Store::put", [&] {
            for (const RunResult &c : result.cells) {
                StoreKey key;
                key.kind = "cell";
                key.config = c.config;
                key.params = c.params;
                key.workload = c.workload;
                key.seed = c.seed;
                key.warmup = result.warmup;
                key.measure = result.measure;
                key.sample = result.sample;
                hashes.push_back(storeKeyHash(key));
                store.put(key, cellPayloadText(c.stats));
            }
            store.flush();
        });
        m.set("sim.store_put_ms", (wallNow() - t0) * 1e3, "ms");
        t0 = wallNow();
        std::vector<std::string> payloads(hashes.size());
        traced("sim.Store::get", [&] {
            for (std::size_t i = 0; i < hashes.size(); ++i) {
                if (!store.get(hashes[i], &payloads[i]))
                    problems.push_back("store miss on a put cell");
            }
        });
        m.set("sim.store_get_ms", (wallNow() - t0) * 1e3, "ms");
        for (std::size_t i = 0; i < payloads.size(); ++i) {
            StatRecord back;
            std::string err;
            if (!tryParseCellPayload(payloads[i], &back, &err)
                || back.all() != result.cells[i].stats.all())
                problems.push_back("store round trip differs: " + err);
        }
    }

    t0 = wallNow();
    PlanResult merged;
    traced("sim.shardMerge", [&] {
        std::vector<ShardArtifact> parts(2);
        for (std::uint64_t h = 0; h < 2; ++h) {
            ShardArtifact &p = parts[h];
            p.plan = result.plan;
            p.seed = result.seed;
            p.warmup = result.warmup;
            p.measure = result.measure;
            p.filter = result.filter;
            p.sample = result.sample;
            p.hosts = 2;
            p.shard = h;
            p.cellsTotal = result.cells.size();
            for (std::size_t i = 0; i < result.cells.size(); ++i) {
                if (i % 2 == h)
                    p.cells.push_back(ShardCell{i, result.cells[i]});
            }
            std::istringstream is(shardArtifactString(p));
            std::string err;
            if (!tryReadShardArtifact(is, &p, &err))
                problems.push_back("shard partial: " + err);
        }
        std::string err;
        if (!tryMergeShardArtifacts(parts, &merged, &err))
            problems.push_back(err);
    });
    m.set("sim.shard_merge_ms", (wallNow() - t0) * 1e3, "ms");
    if (jsonArtifactString(merged) != json)
        problems.push_back("shard-merged artifact differs");
    fs::remove_all(base);
    outcome.operation(problems);
}

/** Core::run with the tick-loop profiler on against off, on one cell. */
void
profilerProbe(Metrics &m, const SimConfig &base, const std::string &wname,
              const Options &opt)
{
    SpanScope s("bench.probe.profiler");
    tracer.op = "probe/profiler/" + base.name + "/" + wname;
    const Sizes sz = sizesFor(opt.size);
    std::vector<double> off, on;
    for (int rep = 0; rep < 4; ++rep) {
        const bool prof = rep % 2 == 1;
        traced("common.prof::setEnabled", [&] { prof::setEnabled(prof); });
        const DirectCell cell = runDirectCell(base, wname, opt, sz);
        (prof ? on : off).push_back(cell.runSeconds);
    }
    traced("common.prof::setEnabled", [&] { prof::setEnabled(false); });
    m.set("common.prof_overhead_frac",
          *std::min_element(on.begin(), on.end())
                  / *std::min_element(off.begin(), off.end())
              - 1.0,
          "frac");
}

/** Self time per layer: each span's duration minus the part its child
 *  spans cover, summed by module. */
void
selfTimeMetrics(Metrics &m)
{
    std::vector<double> childTime(tracer.spans.size(), 0.0);
    for (const Span &sp : tracer.spans) {
        if (sp.parent >= 0)
            childTime[sp.parent] += sp.end - sp.start;
    }
    std::map<std::string, double> self;
    for (const char *layer :
         {"bench", "workloads", "trace", "isa", "bpred", "vpred", "mem",
          "pipeline", "sim", "common"})
        self[layer] = 0.0;
    for (std::size_t i = 0; i < tracer.spans.size(); ++i) {
        const Span &sp = tracer.spans[i];
        self[layerOf(sp.name)] += sp.end - sp.start - childTime[i];
    }
    for (const auto &[layer, secs] : self)
        m.set(layer + ".self_s", secs, "s");
}

/** Share of the timed regions' wall time covered by the module calls
 *  made directly inside them. */
double
timedCoverage()
{
    double timed = 0.0, inside = 0.0;
    for (const Span &sp : tracer.spans) {
        if (sp.parent >= 0 && tracer.spans[sp.parent].name == "bench.timed")
            inside += sp.end - sp.start;
        if (sp.name == "bench.timed")
            timed += sp.end - sp.start;
    }
    return timed > 0.0 ? inside / timed : 0.0;
}

void
writeSpans(const std::string &path, const std::string &workload)
{
    std::ofstream os(path);
    for (std::size_t i = 0; i < tracer.spans.size(); ++i) {
        const Span &sp = tracer.spans[i];
        os << "{\"id\": " << i << ", \"name\": ";
        jsonWriteEscaped(os, sp.name);
        os << ", \"layer\": ";
        jsonWriteEscaped(os, layerOf(sp.name));
        os << ", \"start_s\": " << jsonNumberText(sp.start)
           << ", \"end_s\": " << jsonNumberText(sp.end)
           << ", \"parent\": " << sp.parent << ", \"workload\": ";
        jsonWriteEscaped(os, workload);
        os << ", \"op\": ";
        jsonWriteEscaped(os, sp.op);
        os << "}\n";
    }
}

// --- Main ---------------------------------------------------------------------

std::string
loadAvg()
{
    double l[3] = {0, 0, 0};
    if (getloadavg(l, 3) != 3)
        return "unknown";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.2f %.2f %.2f", l[0], l[1], l[2]);
    return buf;
}

std::unique_ptr<BenchWorkload>
makeWorkload(const Options &opt)
{
    if (opt.workload == "sweep_full")
        return std::make_unique<SweepFull>(opt);
    if (opt.workload == "sweep_sampled")
        return std::make_unique<SweepSampled>(opt);
    return nullptr;
}

/** Rounds until @p seconds have passed, at least @p min_rounds. */
std::vector<RoundTimes>
runRounds(BenchWorkload &bw, double seconds, int min_rounds,
          Outcome &outcome)
{
    std::vector<RoundTimes> rounds;
    const double start = wallNow();
    while (int(rounds.size()) < min_rounds || wallNow() - start < seconds) {
        SpanScope s("bench.round");
        const RoundTimes &r = rounds.emplace_back(
            bw.round(int(rounds.size()), outcome));
        std::printf("perfbench: round %zu setup_s=%.4f wall_s=%.4f "
                    "cpu_s=%.4f at %.1f s\n", rounds.size() - 1, r.setup,
                    r.wall, r.cpu, wallNow());
        if (rounds.size() >= 200)
            break;
    }
    return rounds;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N "
                 "--seconds S --trace 0|1 [--size full|smoke] "
                 "[--root DIR] [--out DIR]\n"
                 "workloads: sweep_full "
                 "sweep_sampled\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            opt.workload = v;
        else if (k == "--seed")
            opt.seed = std::stoull(v);
        else if (k == "--seconds")
            opt.seconds = std::stod(v);
        else if (k == "--trace")
            opt.trace = v == "1";
        else if (k == "--size")
            opt.size = v;
        else if (k == "--root")
            opt.root = v;
        else if (k == "--out")
            opt.outDir = v;
        else
            return usage();
    }
    if (argc % 2 == 0 || (opt.size != "full" && opt.size != "smoke"))
        return usage();
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    opt.jobs = int(std::min(4u, hw));
    fs::create_directories(opt.outDir);

    const std::string loadStart = loadAvg();
    std::unique_ptr<BenchWorkload> bw = makeWorkload(opt);
    if (!bw)
        return usage();

    Outcome outcome;
    Metrics m;
    if (!opt.trace) {
        const auto rounds = runRounds(*bw, opt.seconds, 4, outcome);
        // Round 0 pays one-time costs (page faults, first allocations):
        // it is checked and its set-up counts, but it is not timed.
        std::vector<double> setup, wall, cpu;
        for (std::size_t i = 0; i < rounds.size(); ++i) {
            setup.push_back(rounds[i].setup);
            if (i == 0)
                continue;
            wall.push_back(rounds[i].wall);
            cpu.push_back(rounds[i].cpu);
        }
        const RoundWork w = bw->work();
        const double wallS = median(wall), cpuS = median(cpu);
        m.set("setup_s", median(setup), "s");
        m.set("wall_s", wallS, "s");
        m.set("cpu_s", cpuS, "s");
        m.set("uops_per_s", w.uops / wallS, "uops/s");
        m.set("uops_per_cpu_s", w.uops / cpuS, "uops/s");
        m.set("cycles_per_s", w.cycles / wallS, "cycles/s");
        std::printf("perfbench: %s rounds=%zu\n", opt.workload.c_str(),
                    rounds.size());
    } else {
        // Untraced rounds, then as many traced ones: the difference is
        // the tracing overhead. Probes follow, all traced.
        const auto plain = runRounds(*bw, opt.seconds / 2, 3, outcome);
        tracer.enabled = true;
        std::vector<RoundTimes> withSpans;
        for (std::size_t i = 1; i < plain.size(); ++i) {
            SpanScope s("bench.round");
            withSpans.push_back(bw->round(int(plain.size() + i), outcome));
        }
        std::vector<double> wp, wt;
        for (std::size_t i = 1; i < plain.size(); ++i)
            wp.push_back(plain[i].wall);
        for (const RoundTimes &r : withSpans)
            wt.push_back(r.wall);
        const double coverage = timedCoverage();
        bw->layerMetrics(m);
        const std::vector<DirectCell> &cells = bw->directCells();
        pipelineMetrics(m, cells);
        contextMetrics(m, cells);
        const std::vector<std::string> names = bw->traceWorkloads();
        auto trace = traceProbes(m, *bw, opt, outcome);
        componentProbes(m, trace, names.front());
        coreProbes(m, trace, names.front(), opt, outcome);
        resultProbes(m, bw->result(), opt, outcome);
        profilerProbe(m, fig12Configs().front(), names.front(), opt);
        selfTimeMetrics(m);
        m.set("trace_overhead_frac", median(wt) / median(wp) - 1.0, "frac");
        m.set("span_coverage", coverage, "frac");
        const std::string spanPath = opt.outDir + "/spans-" + opt.workload
            + "-seed" + std::to_string(opt.seed) + ".jsonl";
        writeSpans(spanPath, opt.workload);
        std::printf("perfbench: %zu spans written to %s\n",
                    tracer.spans.size(), spanPath.c_str());
    }

    bw->verify(outcome);

    const std::string buildType = buildInfo().buildType;
    const bool comparable = buildType != "Debug" && !PERFBENCH_SANITIZED;
    const std::string digest = statsDigest(bw->result());
    std::printf("perfbench: digest %s %s\n", opt.workload.c_str(),
                digest.c_str());
    for (const RunResult &c : bw->result().cells)
        std::printf("perfbench: ipc %s/%s %.6f\n", c.config.c_str(),
                    c.workload.c_str(), c.stats.get("ipc"));
    for (const std::string &msg : outcome.messages)
        std::printf("perfbench: FAILED %s\n", msg.c_str());
    if (!comparable)
        std::printf("perfbench: WARNING %s%s build; timings are not "
                    "comparable\n", PERFBENCH_SANITIZED ? "sanitizer " : "",
                    buildType.c_str());

    std::ostringstream os;
    os << "{\"correct\": " << (outcome.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << outcome.attempted
       << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < m.items.size(); ++i) {
        const auto &[name, vu] = m.items[i];
        os << (i ? ", " : "");
        jsonWriteEscaped(os, name);
        os << ": {\"value\": " << jsonNumberText(vu.first)
           << ", \"unit\": ";
        jsonWriteEscaped(os, vu.second);
        os << "}";
    }
    const std::pair<const char *, std::string> context[] = {
        {"workload", opt.workload},
        {"size", opt.size},
        {"loadavg_start", loadStart},
        {"loadavg_end", loadAvg()},
        {"build", buildInfoString()},
        {"digest", digest},
    };
    os << "}, \"context\": {\"seed\": " << opt.seed
       << ", \"nproc\": " << hw << ", \"jobs\": " << opt.jobs
       << ", \"comparable\": " << (comparable ? "true" : "false");
    for (const auto &[key, value] : context) {
        os << ", \"" << key << "\": ";
        jsonWriteEscaped(os, value);
    }
    os << "}}";
    std::printf("%s\n", os.str().c_str());
    return 0;
}

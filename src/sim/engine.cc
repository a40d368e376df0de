/**
 * @file
 * The one run engine behind runPlan, runSampledPlan, runShard and
 * saveCheckpoints: matched cells expand into typed jobs on the worker
 * pool (sim/sweep.hh file header).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/env.hh"
#include "common/logging.hh"
#include "pipeline/core.hh"
#include "sim/params.hh"
#include "sim/sample/sample.hh"
#include "sim/store.hh"
#include "sim/telemetry.hh"
#include "sim/trace_cache.hh"
#include "workloads/workload.hh"

namespace eole {

std::string
sanitizeForPath(const std::string &s)
{
    std::string out = s;
    for (char &c : out) {
        if (c == '/' || c == '\\' || c == ' ' || c == ':')
            c = '_';
    }
    return out;
}

MatchedCells
matchCells(const ExperimentPlan &plan, const std::string &filter,
           const ShardSlice &shard)
{
    for (std::size_t i = 0; i < plan.configs.size(); ++i) {
        for (std::size_t j = i + 1; j < plan.configs.size(); ++j) {
            fatal_if(plan.configs[i].name == plan.configs[j].name,
                     "plan %s: duplicate config name %s", plan.name.c_str(),
                     plan.configs[i].name.c_str());
        }
    }
    MatchedCells out;
    for (std::size_t c = 0; c < plan.configs.size(); ++c) {
        const SimConfig &cfg = plan.configs[c];
        for (std::size_t w = 0; w < plan.workloads.size(); ++w) {
            const std::string &wl = plan.workloads[w];
            if (!cellMatches(filter, cfg.name, wl))
                continue;
            const std::uint64_t slot = out.filterMatched++;
            // A shard slice behaves exactly like a filter, except that
            // the slot numbering keeps counting the cells it drops.
            if (shard.owns(plan.seed, cfg.seed, cfg.name, wl)) {
                out.cells.push_back(MatchedCell{
                    c, w, slot, jobSeed(plan.seed, cfg.seed, cfg.name, wl)});
            }
        }
    }
    return out;
}

namespace {

/** What the job graph runs to. */
enum class Goal
{
    Full,     //!< one `cell` job per cell, identity reduction
    Sampled,  //!< `warm` + `interval` jobs, mean/CI reduction
    Save,     //!< `warm` jobs only; checkpoints to files and store
};

/** The typed jobs a cell expands into (sim/sweep.hh file header). */
enum JobKind
{
    CellJob,
    WarmJob,
    IntervalJob,
};
const char *const jobKindNames[] = {"cell", "warm", "interval"};

struct Job
{
    JobKind kind;
    std::size_t cell;
    std::size_t interval;  //!< interval jobs only
};

/** One interval's measurement. */
struct IntervalResult
{
    std::uint64_t start = 0;      //!< measured-interval start µ-op
    std::uint64_t warmedUops = 0; //!< functionally warmed µ-ops
    std::uint64_t committed = 0;  //!< measured µ-ops
    std::uint64_t cycles = 0;     //!< measured cycles
};

/** One matched cell as the engine carries it through its jobs. Its
 *  RunResult is the same index of PlanResult::cells. */
struct Cell
{
    const SimConfig *cfg = nullptr;
    std::size_t wl = 0;                 //!< index into plan.workloads
    std::uint64_t measure = 0;          //!< resolved for this config
    std::vector<std::uint64_t> starts;  //!< placed interval starts
    std::vector<IntervalResult> intervals;  //!< pre-assigned slots
    /** Warm-once checkpoints, one per interval; each interval job
     *  consumes and releases its own. */
    std::vector<std::shared_ptr<const Checkpoint>> ckpts;
    /** Save only: each interval's serialized checkpoint (kept for the
     *  store post-pass) and the files written, in interval order. */
    std::vector<std::string> texts;
    std::vector<std::string> files;
    bool cached = false;  //!< satisfied by the store pre-pass
};

/** The checkpoint index of an interval starting at @p start: the
 *  first µ-op of its detailed-warmup prefix. */
std::uint64_t
ckptIndexOf(std::uint64_t start, const SampleSpec &spec)
{
    return start >= spec.detailUops ? start - spec.detailUops : 0;
}

/** One run of the job graph; everything lives for one entry-point
 *  call. */
struct Engine
{
    Engine(const ExperimentPlan &plan, const SampleSpec &spec,
           const SweepOptions &options, Goal goal,
           std::string ckpt_dir = "")
        : plan(plan), spec(spec), opt(options), goal(goal),
          ckptDir(std::move(ckpt_dir)),
          // Bounded warming is per-interval by construction (each
          // interval warms at most B µ-ops of its own prefix), so
          // sampled runs warm once only in the continuous (B=0) mode;
          // sampleRewarm forces the re-warming path there for
          // differential validation. Saving always warms once.
          warmOnce(goal == Goal::Save
                   || (goal == Goal::Sampled && spec.warmBound == 0
                       && !options.sampleRewarm)),
          remaining(plan.workloads.size())
    {}

    PlanResult run();
    void enumerate();
    void loadFromStore();
    bool loadCheckpoints(std::size_t i);
    void expand(std::vector<Job> &warm_jobs, std::vector<Job> &jobs);
    void sizeTraces();
    void runJobs(const std::vector<Job> &jobs);
    void runJob(const Job &job, int worker);
    void runCell(const SimConfig &cfg, const Cell &cell, RunResult &rr);
    StatRecord warm(const SimConfig &cfg, Cell &cell,
                    const RunResult &rr, bool &ok);
    StatRecord measureInterval(const SimConfig &cfg, Cell &cell,
                               const RunResult &rr, std::size_t k);
    std::shared_ptr<const FrozenTrace> traceFor(const Workload &w,
                                                std::uint64_t horizon);
    bool writeCheckpointFiles(Cell &cell, const RunResult &rr);
    void reduce();
    StoreKey storeKey(std::size_t i, std::uint64_t index) const;
    void storeFinish();

    const ExperimentPlan &plan;
    const SampleSpec spec;  //!< disabled for full runs
    const SweepOptions &opt;
    const Goal goal;
    const std::string ckptDir;
    const bool warmOnce;

    PlanResult out;
    std::vector<Cell> cells;  //!< config-major, like out.cells

    std::uint64_t traceUopsNeeded = 0;
    std::uint64_t inflight = 0;
    TraceCache cache;
    /** Unfinished jobs per workload: its trace is dropped at zero. */
    std::vector<std::atomic<std::size_t>> remaining;
    std::size_t totalJobs = 0;
    std::atomic<std::size_t> done{0};
    std::mutex progressMu;
    std::atomic<bool> writeFailed{false};  //!< save only
};

PlanResult
Engine::run()
{
    enumerate();
    loadFromStore();
    std::vector<Job> warmJobs, jobs;
    expand(warmJobs, jobs);
    if (totalJobs > 0) {
        sizeTraces();
        // Warming barriers before the measured jobs: an interval job
        // restores a checkpoint its cell's warm job filled in.
        runJobs(warmJobs);
        runJobs(jobs);
    }
    // Runs report their trace cache only when a job ran; `ckpt save`
    // reports it even when the store served every cell.
    if (opt.telemetry && opt.useTraceCache
        && (totalJobs > 0 || goal == Goal::Save))
        opt.telemetry->traceCacheCounts(
            cache.hitCount(), cache.missCount(), cache.fileHitCount(),
            cache.fileMissCount(), cache.evictCount());
    if (goal == Goal::Sampled)
        reduce();
    storeFinish();
    return std::move(out);
}

void
Engine::enumerate()
{
    out.plan = plan.name;
    out.seed = plan.seed;
    // Precedence documented in common/env.hh: option > plan > env >
    // default.
    out.warmup = resolveRunLength(opt.warmup, plan.warmup, "EOLE_WARMUP",
                                  defaultWarmupUops);
    out.measure = resolveRunLength(opt.measure, plan.measure, "EOLE_INSTS",
                                   defaultMeasureUops);
    out.filter = opt.filter;
    out.sample = spec;

    const MatchedCells matched = matchCells(plan, opt.filter, opt.shard);
    cells.resize(matched.cells.size());
    out.cells.resize(matched.cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const MatchedCell &m = matched.cells[i];
        Cell &cell = cells[i];
        RunResult &rr = out.cells[i];
        cell.cfg = &plan.configs[m.config];
        cell.wl = m.workload;
        rr.config = cell.cfg->name;
        rr.workload = plan.workloads[m.workload];
        rr.seed = m.seed;
        // The canonical config map of the cell as declared by the plan
        // (the per-job seed the cell actually ran with is the "seed"
        // field above; the map records the config's own seed knob).
        rr.params = configKeyValues(*cell.cfg);
        cell.measure = resolveMeasureFor(opt.measure, plan, rr.config);
        if (goal != Goal::Full) {
            // Placement depends only on run lengths and the cell seed,
            // never on the recorded trace; per-config `runlen`
            // overrides move that config's sampled region.
            cell.starts = placeIntervals(out.warmup, cell.measure, spec,
                                         rr.seed);
            cell.intervals.resize(cell.starts.size());
        }
        if (opt.telemetry)
            opt.telemetry->cellQueued(rr.config, rr.workload);
    }
}

StoreKey
Engine::storeKey(std::size_t i, std::uint64_t index) const
{
    StoreKey key;
    key.kind = goal == Goal::Save ? "ckpt" : "cell";
    key.config = out.cells[i].config;
    key.params = out.cells[i].params;
    key.workload = out.cells[i].workload;
    key.seed = out.cells[i].seed;
    key.warmup = out.warmup;
    key.measure = cells[i].measure;
    // The sample spec is part of the key, so sampled and full results
    // never alias.
    key.sample = spec;
    key.index = index;
    return key;
}

void
Engine::loadFromStore()
{
    // Content-addressed store, serial pre-pass: a cell whose key (the
    // complete canonical inputs; sim/store.hh) already resolves loads
    // its result and sheds its jobs. The payload round-trips exactly,
    // so hit cells and computed cells come out byte-identical.
    if (!opt.store)
        return;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (goal == Goal::Save) {
            cells[i].cached = loadCheckpoints(i);
            continue;
        }
        const std::string hash = storeKeyHash(storeKey(i, 0));
        std::string payload;
        if (!opt.store->get(hash, &payload))
            continue;
        std::string err;
        fatal_if(!tryParseCellPayload(payload, &out.cells[i].stats, &err),
                 "store %s: object %s: %s (delete the store directory to "
                 "rebuild it)",
                 opt.store->directory().c_str(), hash.c_str(), err.c_str());
        cells[i].cached = true;
        ++out.storeHits;
    }
}

bool
Engine::loadCheckpoints(std::size_t i)
{
    // Checkpoint keys carry the UNCLAMPED checkpoint index (a pure
    // function of the placement; the trace length is unknown before
    // recording, and the clamped content is itself a deterministic
    // function of these inputs), so every interval has its own key
    // even where trace clamping collapses the tails onto one state.
    // A cell whose checkpoints all resolve skips its warming pass.
    Cell &cell = cells[i];
    std::vector<std::string> hashes;
    for (const std::uint64_t s : cell.starts)
        hashes.push_back(storeKeyHash(storeKey(i, ckptIndexOf(s, spec))));
    if (hashes.empty()
        || !std::all_of(hashes.begin(), hashes.end(),
                        [&](const std::string &h) {
                            return opt.store->contains(h);
                        }))
        return false;
    cell.texts.resize(hashes.size());
    for (std::size_t k = 0; k < hashes.size(); ++k) {
        if (!opt.store->get(hashes[k], &cell.texts[k])) {
            // The object vanished: recompute the cell.
            cell.texts.clear();
            cell.ckpts.clear();
            return false;
        }
        // The payload IS the checkpoint file; deserialize only to
        // recover the clamped µ-op index the filename carries.
        auto ckpt = std::make_shared<Checkpoint>();
        std::string err;
        std::istringstream is(cell.texts[k]);
        fatal_if(!tryDeserializeCheckpoint(is, ckpt.get(), &err),
                 "store %s: object %s: %s (delete the store directory to "
                 "rebuild it)",
                 opt.store->directory().c_str(), hashes[k].c_str(),
                 err.c_str());
        cell.ckpts.push_back(std::move(ckpt));
    }
    writeCheckpointFiles(cell, out.cells[i]);
    cell.texts.clear();
    out.storeHits += hashes.size();
    return true;
}

void
Engine::expand(std::vector<Job> &warm_jobs, std::vector<Job> &jobs)
{
    // Workload-major, so the jobs sharing one workload's frozen trace
    // cluster together and the trace can be dropped as soon as its
    // last job finishes.
    std::vector<std::size_t> perWorkload(plan.workloads.size(), 0);
    for (std::size_t w = 0; w < plan.workloads.size(); ++w) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const Cell &cell = cells[i];
            if (cell.wl != w || cell.cached)
                continue;
            if (goal == Goal::Full) {
                jobs.push_back(Job{CellJob, i, 0});
                ++perWorkload[w];
                continue;
            }
            if (warmOnce && !cell.starts.empty()) {
                warm_jobs.push_back(Job{WarmJob, i, 0});
                ++perWorkload[w];
            }
            if (goal == Goal::Save)
                continue;
            for (std::size_t k = 0; k < cell.starts.size(); ++k) {
                jobs.push_back(Job{IntervalJob, i, k});
                ++perWorkload[w];
            }
        }
    }
    for (std::size_t w = 0; w < plan.workloads.size(); ++w)
        remaining[w].store(perWorkload[w], std::memory_order_relaxed);
    totalJobs = warm_jobs.size() + jobs.size();
}

void
Engine::sizeTraces()
{
    // The stream a job consumes is bounded by its committed target
    // plus the in-flight window. Per-config `runlen` overrides
    // lengthen individual cells, so recordings are sized for the
    // longest config; and the degenerate single interval of a
    // too-short region may run past warmup+measure, so they also
    // reach the furthest fetch any interval can make.
    std::uint64_t longest = out.measure;
    for (const SimConfig &c : plan.configs)
        longest = std::max(longest,
                           resolveMeasureFor(opt.measure, plan, c.name));
    std::uint64_t furthest = out.warmup + longest;
    for (const Cell &cell : cells) {
        for (const std::uint64_t s : cell.starts)
            furthest = std::max(furthest, s + spec.intervalUops);
    }
    inflight = maxInflightUops(plan);
    traceUopsNeeded = furthest + inflight;
}

/**
 * The worker pool: run every job once, dispatched dynamically over
 * min(opt.jobs or runnerThreads(), jobs.size()) threads (inline when
 * that is one). A job writes only to its pre-assigned slots, and the
 * worker index only labels telemetry, never results — the
 * determinism contract the engine builds on.
 */
void
Engine::runJobs(const std::vector<Job> &jobs)
{
    std::atomic<std::size_t> next{0};
    const auto worker = [&](int me) {
        for (std::size_t j; (j = next.fetch_add(1)) < jobs.size();)
            runJob(jobs[j], me);
    };
    const std::size_t nthreads = std::min<std::size_t>(
        opt.jobs > 0 ? opt.jobs : runnerThreads(), jobs.size());
    if (nthreads <= 1) {
        worker(0);
        return;
    }
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < nthreads; ++t)
        pool.emplace_back(worker, static_cast<int>(t));
    for (std::thread &t : pool)
        t.join();
}

void
Engine::runJob(const Job &job, int worker)
{
    Cell &cell = cells[job.cell];
    RunResult &rr = out.cells[job.cell];
    const char *kind = jobKindNames[job.kind];
    const long interval =
        job.kind == IntervalJob ? static_cast<long>(job.interval) : -1;
    if (opt.telemetry)
        opt.telemetry->jobStart(kind, rr.config, rr.workload, worker,
                                interval);
    const auto t0 = std::chrono::steady_clock::now();

    SimConfig cfg = *cell.cfg;
    cfg.seed = rr.seed;
    bool ok = true;
    StatRecord shown;
    switch (job.kind) {
      case CellJob:
        runCell(cfg, cell, rr);
        break;
      case WarmJob:
        shown = warm(cfg, cell, rr, ok);
        break;
      case IntervalJob:
        shown = measureInterval(cfg, cell, rr, job.interval);
        break;
    }
    if (remaining[cell.wl].fetch_sub(1) == 1)
        cache.drop(rr.workload);

    if (opt.telemetry) {
        const double wall_ms = std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0).count();
        opt.telemetry->jobFinish(kind, rr.config, rr.workload, worker,
                                 wall_ms, ok, interval);
    }
    const std::size_t finished = done.fetch_add(1) + 1;
    if (!opt.progress)
        return;
    std::lock_guard<std::mutex> lock(progressMu);
    if (job.kind == CellJob) {
        opt.progress(finished, totalJobs, rr);
        return;
    }
    // Warm and interval jobs report their own stats, not the cell's.
    RunResult partial;
    partial.config = rr.config;
    partial.workload = rr.workload;
    partial.seed = rr.seed;
    partial.stats = std::move(shown);
    opt.progress(finished, totalJobs, partial);
}

std::shared_ptr<const FrozenTrace>
Engine::traceFor(const Workload &w, std::uint64_t horizon)
{
    std::shared_ptr<const FrozenTrace> trace;
    if (opt.useTraceCache)
        trace = cache.get(w, traceUopsNeeded);
    // Budget pressure / cache disabled: a private recording (warming
    // and checkpointed starts need a frozen trace), bounded to the
    // job's own fetch horizon so residency stays proportional to the
    // job instead of the whole run.
    if (!trace)
        trace = w.freeze(std::min(traceUopsNeeded, horizon));
    return trace;
}

void
Engine::runCell(const SimConfig &cfg, const Cell &cell, RunResult &rr)
{
    Workload w = workloads::build(rr.workload);
    if (opt.useTraceCache)
        w.frozen = cache.get(w, traceUopsNeeded);
    const std::uint64_t maxCycles =
        (out.warmup + cell.measure) * 60 + 1000000;
    Core core(cfg, w);
    if (opt.tracer)
        core.setPipeTracer(opt.tracer);
    core.run(out.warmup, maxCycles);
    core.resetStats();
    core.run(cell.measure, maxCycles);
    rr.stats = core.record();
}

StatRecord
Engine::warm(const SimConfig &cfg, Cell &cell, const RunResult &rr,
             bool &ok)
{
    // One continuous warming pass per cell, dropping a µarch-bearing
    // v2 checkpoint at each interval's detailed-warmup start (clamped
    // to the trace). Slots are pre-assigned, so the pass is
    // deterministic regardless of worker count.
    const Workload w = workloads::build(rr.workload);
    const auto trace = traceFor(w, cell.starts.back());
    const std::uint64_t len = trace->uops.size();
    std::vector<std::uint64_t> idxs;
    std::uint64_t prev = 0;
    for (std::size_t k = 0; k < cell.starts.size(); ++k) {
        IntervalResult &iv = cell.intervals[k];
        iv.start = std::min<std::uint64_t>(cell.starts[k], len);
        idxs.push_back(ckptIndexOf(iv.start, spec));
        iv.warmedUops = idxs[k] - std::min(prev, idxs[k]);
        prev = idxs[k];
    }
    cell.ckpts = warmOnceCheckpoints(cfg, w, trace, idxs);

    StatRecord stats;
    stats.add("sample_ckpts", static_cast<double>(cell.ckpts.size()));
    if (goal == Goal::Save) {
        for (const auto &ckpt : cell.ckpts)
            cell.texts.push_back(checkpointString(*ckpt));
        ok = writeCheckpointFiles(cell, rr);
        if (!opt.store)
            cell.texts.clear();
    }
    return stats;
}

bool
Engine::writeCheckpointFiles(Cell &cell, const RunResult &rr)
{
    bool ok = true;
    for (std::size_t k = 0; k < cell.ckpts.size(); ++k) {
        // Intervals clamped to the end of a short workload repeat the
        // final index with identical state; one file covers them all
        // (no silent overwrite, no inflated count).
        const std::uint64_t uop = cell.ckpts[k]->uopIndex;
        if (k > 0 && uop == cell.ckpts[k - 1]->uopIndex)
            continue;
        const std::string file = ckptDir + "/" + sanitizeForPath(rr.config)
            + "__" + sanitizeForPath(rr.workload) + "__u"
            + std::to_string(uop) + ".ckpt";
        std::ofstream os(file, std::ios::binary);
        os << cell.texts[k];
        // Judge success after closing: buffered bytes only hit disk
        // here, and ENOSPC at close must not report the file written.
        os.close();
        if (os.fail())
            ok = false;
        else
            cell.files.push_back(file);
    }
    cell.ckpts.clear();
    if (!ok)
        writeFailed.store(true);
    return ok;
}

StatRecord
Engine::measureInterval(const SimConfig &cfg, Cell &cell,
                        const RunResult &rr, std::size_t k)
{
    IntervalResult &iv = cell.intervals[k];
    const Workload w = workloads::build(rr.workload);
    auto trace = traceFor(w, cell.starts[k] + spec.intervalUops + inflight);
    const std::uint64_t len = trace->uops.size();

    std::shared_ptr<const Checkpoint> ckpt;
    std::uint64_t start;
    if (warmOnce) {
        // The warm job's checkpoint is the start point; its µ-op index
        // already reflects the trace-length clamps.
        ckpt = std::move(cell.ckpts[k]);
        start = iv.start;
    } else {
        start = std::min<std::uint64_t>(cell.starts[k], len);
        ckpt = std::make_shared<Checkpoint>(
            captureAt(*trace, rr.workload, ckptIndexOf(start, spec)));
        iv.start = start;
    }
    const std::uint64_t ckptIdx = ckpt->uopIndex;
    const std::uint64_t detail = start - ckptIdx;

    Workload wc = w;
    wc.frozen = trace;
    wc.start = ckpt;
    Core core(cfg, wc);
    if (warmOnce) {
        core.restoreWarmState(*ckpt);
    } else {
        // Bounded warming (spec.warmBound != 0) caps the
        // functionally-warmed window before each interval; 0 keeps
        // classic SMARTS continuous warming over the whole prefix.
        const std::uint64_t warmBegin =
            spec.warmBound && ckptIdx > spec.warmBound
                ? ckptIdx - spec.warmBound
                : 0;
        iv.warmedUops = ckptIdx - warmBegin;
        core.functionalWarm(*trace, warmBegin, ckptIdx);
    }
    if (detail)
        core.run(detail, detail * 60 + 1000000);
    core.resetTiming();
    iv.committed = core.run(spec.intervalUops,
                            spec.intervalUops * 60 + 1000000);
    iv.cycles = core.pipelineState().cycles;

    StatRecord stats;
    stats.add("interval_start", static_cast<double>(iv.start));
    stats.add("ipc", ratio(static_cast<double>(iv.committed),
                           static_cast<double>(iv.cycles)));
    return stats;
}

void
Engine::reduce()
{
    // Reduce each cell in slot order (deterministic float order).
    // Cached cells carry their reduced stats already (store pre-pass)
    // and must not be re-reduced from their empty interval slots.
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].cached)
            continue;
        std::vector<double> ipcs;
        std::uint64_t cycles = 0, committed = 0, warmed = 0;
        for (const IntervalResult &iv : cells[i].intervals) {
            warmed += iv.warmedUops;
            if (iv.committed == 0 || iv.cycles == 0)
                continue;  // interval past the end of a short workload
            ipcs.push_back(ratio(static_cast<double>(iv.committed),
                                 static_cast<double>(iv.cycles)));
            cycles += iv.cycles;
            committed += iv.committed;
        }
        const MeanCi ci = meanCi95(ipcs);
        StatRecord &s = out.cells[i].stats;
        s.add("ipc", ci.mean);
        s.add("ipc_ci95", ci.ci95);
        s.add("ipc_stddev", ci.stddev);
        s.add("cycles", static_cast<double>(cycles));
        s.add("committed_uops", static_cast<double>(committed));
        s.add("sample_intervals", static_cast<double>(ipcs.size()));
        s.add("sample_interval_uops",
              static_cast<double>(spec.intervalUops));
        s.add("sample_detail_uops", static_cast<double>(spec.detailUops));
        s.add("sample_warm_uops", static_cast<double>(warmed));
        // Every interval of a warm-once run is fed from a checkpoint.
        s.add("sample_restored_intervals",
              warmOnce ? static_cast<double>(cells[i].intervals.size())
                       : 0.0);
    }
}

void
Engine::storeFinish()
{
    // Serial post-pass: freshly computed cells enter the store under
    // the keys the pre-pass looked up.
    if (!opt.store)
        return;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &cell = cells[i];
        if (cell.cached)
            continue;
        if (goal != Goal::Save) {
            opt.store->put(storeKey(i, 0),
                           cellPayloadText(out.cells[i].stats));
            ++out.storeComputed;
            continue;
        }
        for (std::size_t k = 0; k < cell.texts.size(); ++k) {
            opt.store->put(storeKey(i, ckptIndexOf(cell.starts[k], spec)),
                           cell.texts[k]);
            ++out.storeComputed;
        }
    }
    opt.store->flush();
    if (opt.telemetry)
        opt.telemetry->storeCounts(out.storeHits, out.storeComputed);
}

} // namespace

PlanResult
runPlan(const ExperimentPlan &plan, const SweepOptions &options)
{
    return Engine(plan, SampleSpec{}, options, Goal::Full).run();
}

PlanResult
runSampledPlan(const ExperimentPlan &plan, const SampleSpec &spec,
               const SweepOptions &options)
{
    fatal_if(!spec.enabled(), "runSampledPlan: spec is disabled");
    return Engine(plan, spec, options, Goal::Sampled).run();
}

SavedCheckpoints
saveCheckpoints(const ExperimentPlan &plan, const SampleSpec &spec,
                const SweepOptions &options, const std::string &dir)
{
    fatal_if(!spec.enabled(), "saveCheckpoints: spec is disabled");
    Engine engine(plan, spec, options, Goal::Save, dir);
    SavedCheckpoints saved;
    saved.run = engine.run();
    for (const Cell &cell : engine.cells)
        saved.files.insert(saved.files.end(), cell.files.begin(),
                           cell.files.end());
    saved.writeFailed = engine.writeFailed.load();
    return saved;
}

} // namespace eole

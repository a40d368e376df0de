/**
 * @file
 * The run engine: expand an ExperimentPlan's matched cells into typed
 * jobs and execute them on a worker pool.
 *
 * Every entry point is one job graph (sim/engine.cc). matchCells
 * enumerates the cells once (duplicate-name check, filter, shard
 * ownership, jobSeed); the engine resolves each cell's config map,
 * measured length and store key, runs the store pre-pass, expands the
 * remaining cells into jobs, and afterwards reduces them and puts the
 * fresh results into the store. There are three job kinds:
 *  - `cell`: a full detailed run (warmup, then measure). runPlan is
 *    one cell job per cell with an identity reduction.
 *  - `warm`: one functional warming pass over a cell's prefix that
 *    yields a checkpoint per sampling interval.
 *  - `interval`: restore (or re-warm), detailed warmup, measure.
 *    runSampledPlan is warm + interval jobs with the mean/CI
 *    reduction; saveCheckpoints (sim/sample/sample.hh) is the same
 *    graph stopped after warm.
 *
 * Guarantees (pinned by tests/test_experiment.cc):
 *  - Bit-identical results regardless of worker count: per-job seeds
 *    are a pure function of the cell identity (sim/plan.hh), jobs
 *    share no mutable state, and results land in pre-assigned slots,
 *    so `--jobs 1` and `--jobs 8` produce byte-identical artifacts.
 *  - The shared trace cache is a pure accelerator: a cache hit, a
 *    cache miss and a disabled cache all replay the same functional
 *    stream (live-VM and frozen-replay backings are bit-identical).
 *
 * Scheduling is workload-major so that the jobs sharing a workload's
 * frozen trace run back-to-back and the trace can be dropped as soon
 * as its last job finishes (bounded memory).
 */

#ifndef EOLE_SIM_SWEEP_HH
#define EOLE_SIM_SWEEP_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/plan.hh"

namespace eole {

class PipeTracer;
class Store;
class TelemetrySink;

/** Knobs for one engine invocation (CLI flags map 1:1 onto these). */
struct SweepOptions
{
    int jobs = 0;              //!< worker threads; 0 = runnerThreads()
    std::string filter;        //!< substring over "config/workload"
    std::uint64_t warmup = 0;  //!< µ-ops; 0 = plan, then EOLE_WARMUP
    std::uint64_t measure = 0; //!< µ-ops; 0 = plan, then EOLE_INSTS
    bool useTraceCache = true;

    /** Sharded execution (`eole shard`): when enabled, only cells
     *  this slice owns (ShardSlice::owns, a pure function of plan
     *  seed + cell identity) run; everything else behaves as if the
     *  cell were filtered away. */
    ShardSlice shard;

    /**
     * Content-addressed result store (`eole run --store DIR`,
     * sim/store.hh): cells whose key already resolves load their
     * reduced stats instead of running (byte-identical artifacts —
     * the payload round-trips exactly), and freshly computed cells
     * are inserted afterwards. The engine touches the store only from
     * its serial pre/post passes, never from worker threads.
     */
    Store *store = nullptr;

    /**
     * Sampling only: force the legacy per-interval re-warming path (as
     * before the warm-once checkpoints) even at B=0. The two paths
     * produce identical per-interval measurements (same warmed state —
     * pinned by tests/test_sample.cc); re-warming just pays the prefix
     * N times. Kept for the differential harness and the wall-clock
     * comparison in bench/sample_validation.
     */
    bool sampleRewarm = false;

    /** Progress hook, invoked (serialized) as each job finishes. */
    std::function<void(std::size_t done, std::size_t total,
                       const RunResult &cell)> progress;

    /** Optional JSONL event stream (sim/telemetry.hh). Observability
     *  only: attaching a sink never changes scheduling, results, or
     *  artifacts. Non-owning. */
    TelemetrySink *telemetry = nullptr;

    /** Optional per-µop pipeline event sink (common/pipetrace.hh),
     *  attached to every core the sweep constructs. The CLI restricts
     *  `--pipetrace` to single-cell runs; the engine itself just hands
     *  the pointer to Core. Non-owning, may be null. */
    PipeTracer *tracer = nullptr;
};

/** Everything one sweep produced; the in-memory form of an artifact. */
struct PlanResult
{
    std::string plan;
    std::uint64_t seed = 1;
    std::uint64_t warmup = 0;   //!< resolved µ-ops actually run
    std::uint64_t measure = 0;
    std::string filter;
    SampleSpec sample;          //!< disabled for full (unsampled) runs
    std::vector<RunResult> cells;  //!< config-major over matched cells

    /** Store accounting for the run that produced this result (never
     *  serialized into artifacts — hit and computed cells must stay
     *  byte-identical). Both zero when no store was attached. */
    std::size_t storeHits = 0;
    std::size_t storeComputed = 0;

    const RunResult *find(const std::string &config,
                          const std::string &workload) const;
};

/** Execute every matched cell of @p plan; see file header for the
 *  determinism guarantees. */
PlanResult runPlan(const ExperimentPlan &plan,
                   const SweepOptions &options = {});

/** One cell of a plan that a run executes. */
struct MatchedCell
{
    std::size_t config = 0;    //!< index into plan.configs
    std::size_t workload = 0;  //!< index into plan.workloads
    /** Index among the filter-matched cells, config-major, shard
     *  ignored: the cell's position in a single-host artifact (the
     *  global slot shard partials merge by). */
    std::uint64_t slot = 0;
    std::uint64_t seed = 0;    //!< jobSeed of the cell
};

struct MatchedCells
{
    std::vector<MatchedCell> cells;  //!< config-major
    std::uint64_t filterMatched = 0; //!< cells the filter alone keeps
};

/**
 * The one enumeration of the cells a run executes: config-major over
 * @p plan, keeping the cells whose "config/workload" matches
 * @p filter (cellMatches) and that @p shard owns (ShardSlice::owns).
 * Fatal when two configs share a name (their cells would be
 * indistinguishable in artifacts).
 */
MatchedCells matchCells(const ExperimentPlan &plan,
                        const std::string &filter,
                        const ShardSlice &shard);

/** File-system-safe spelling of a cell identity component. */
std::string sanitizeForPath(const std::string &s);

/** Print the plan's paper-style tables from a sweep's results. Tables
 *  whose cells were filtered away are skipped with a note. */
void printPlanTables(const ExperimentPlan &plan, const PlanResult &result);

} // namespace eole

#endif // EOLE_SIM_SWEEP_HH

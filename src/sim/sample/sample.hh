/**
 * @file
 * Checkpointed statistical sampling: run every ExperimentPlan in a
 * SMARTS-style sampled mode (systematic interval selection, functional
 * warming, detailed warmup, confidence intervals).
 *
 * A full run of one plan cell pays detailed (cycle-level) simulation
 * for warmup + measure µ-ops. Sampled mode instead measures N short
 * intervals of W µops placed systematically across the measured
 * region, each preceded by D µops of detailed warmup; everything
 * before an interval is covered by *functional warming* — the skipped
 * stream is replayed through the branch predictor, value predictor and
 * caches only (isa/warmable.hh), with no ROB/IQ timing.
 *
 * Warm once, restore everywhere (the B=0 default): each (config,
 * workload) cell runs ONE continuous warming pass that drops an
 * "eole-ckpt-v2" checkpoint — architectural registers plus the
 * serialized µarch state of every warmable component — at each
 * interval's detailed-warmup start (warmOnceCheckpoints). Interval
 * jobs then restore instead of re-warming their own prefix, turning
 * the sampled cost from O(N·prefix) into O(prefix + N·(D+W)) while
 * producing measurements identical to per-interval continuous warming
 * (same warmed state ⇒ same measurements; pinned by the differential
 * test in tests/test_sample.cc). Bounded warming (B>0) and
 * SweepOptions::sampleRewarm keep the legacy per-interval warming
 * path.
 *
 * Execution is the run engine's job graph (sim/sweep.hh): a sampled
 * run is one `warm` job per cell, then one `interval` job per placed
 * interval, reduced to the stats below; saveCheckpoints is the same
 * graph stopped after `warm`, so the checkpoints it writes are exactly
 * the ones a sampled run restores from. Per-cell seeds follow the
 * jobSeed discipline, results land in pre-assigned slots, and the
 * reduction walks them in slot order — so sampled artifacts are
 * byte-identical regardless of --jobs and cache settings, exactly
 * like full runs.
 *
 * The reduction records, per cell:
 *   ipc                 mean of the per-interval IPCs
 *   ipc_ci95            95% confidence half-width (Student-t)
 *   ipc_stddev          sample standard deviation
 *   cycles              total measured cycles across intervals
 *   committed_uops      total measured µ-ops across intervals
 *   sample_intervals    intervals that actually measured µ-ops
 *   sample_interval_uops / sample_detail_uops     W and D
 *   sample_warm_uops    µ-ops functionally warmed (cost accounting:
 *                       one prefix per cell in warm-once mode, one
 *                       per interval when re-warming)
 *   sample_restored_intervals   intervals fed from a v2 checkpoint
 *                       (0 on the legacy re-warming path — the CI
 *                       lane asserts the warm-once path is active)
 *
 * See DESIGN.md §8 for the methodology (placement math, warming
 * fidelity contract, CI computation, determinism rules).
 */

#ifndef EOLE_SIM_SAMPLE_SAMPLE_HH
#define EOLE_SIM_SAMPLE_SAMPLE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "isa/checkpoint.hh"
#include "sim/sweep.hh"
#include "workloads/workload.hh"

namespace eole {

/**
 * Systematic interval placement over the measured region
 * [@p warmup, @p warmup + @p measure): one interval per period
 * (period = measure / N), offset by a deterministic phase derived
 * from @p cell_seed via the jobSeed mix. Guarantees every start is
 * >= spec.detailUops (the detailed-warmup prefix must exist) and the
 * placements are pairwise disjoint. Returns the measured-interval
 * start indices (µ-op position of the first measured µ-op), fewer
 * than N when the region cannot hold N disjoint intervals — except
 * that one interval is always emitted, and that guaranteed first
 * interval MAY extend past the region when measure < W or the
 * detail-clamp pushes it late: size trace recordings from the placed
 * starts (max(start) + W + inflight), not from warmup + measure
 * alone (as the run engine does).
 */
std::vector<std::uint64_t> placeIntervals(std::uint64_t warmup,
                                          std::uint64_t measure,
                                          const SampleSpec &spec,
                                          std::uint64_t cell_seed);

/** Deterministic per-interval seed (jobSeed discipline: pure function
 *  of the cell seed and the interval index). Interval placement
 *  phases derive from this; measurement cores run on the cell seed
 *  itself so one warming pass covers every interval. */
std::uint64_t intervalSeed(std::uint64_t cell_seed,
                           std::uint64_t interval_index);

/**
 * One continuous warming pass over @p trace for a cell of @p cfg
 * (whose seed must already be the resolved cell seed): stream µ-ops
 * [0, idx) through a fresh core's warmable components and capture an
 * "eole-ckpt-v2" checkpoint — architectural registers via captureAt
 * plus every component's snapshotState — at each index of
 * @p ckpt_indices (non-decreasing; clamped to the trace length).
 * Piecewise warming is state-identical to one uninterrupted pass, so
 * checkpoint k holds exactly the state continuous warming of its
 * whole prefix would produce. The run engine's `warm` job.
 */
std::vector<std::shared_ptr<const Checkpoint>> warmOnceCheckpoints(
    const SimConfig &cfg, const Workload &workload,
    const std::shared_ptr<const FrozenTrace> &trace,
    const std::vector<std::uint64_t> &ckpt_indices);

/** Mean and 95% confidence half-width (Student-t, n-1 df; half-width
 *  0 when fewer than two samples) of @p xs. */
struct MeanCi
{
    double mean = 0.0;
    double ci95 = 0.0;
    double stddev = 0.0;
};
MeanCi meanCi95(const std::vector<double> &xs);

/**
 * Execute @p plan in sampled mode: every matched cell warms once and
 * expands into per-interval jobs on the worker pool (file header),
 * reducing to mean IPC + CI stats. Determinism guarantees match
 * runPlan: artifacts are byte-identical across --jobs and cache
 * settings.
 */
PlanResult runSampledPlan(const ExperimentPlan &plan,
                          const SampleSpec &spec,
                          const SweepOptions &options = {});

/** What saveCheckpoints produced. */
struct SavedCheckpoints
{
    /** Resolved run header, the matched cells (without stats) and the
     *  store accounting (one count per checkpoint). */
    PlanResult run;
    /** Files written, config-major then by interval. Intervals clamped
     *  to the end of a short workload share their final file. */
    std::vector<std::string> files;
    /** Some file could not be written (every other one was). */
    bool writeFailed = false;
};

/**
 * `eole ckpt save`: run @p plan's sampled job graph up to its `warm`
 * jobs and write each interval's checkpoint into @p dir (which must
 * exist) as `<config>__<workload>__u<index>.ckpt` — exactly the
 * checkpoints runSampledPlan restores from (bounded warming, B>0,
 * still warms once here). With options.store, every checkpoint is
 * also stored under a `ckpt` key, and a cell whose checkpoints all
 * resolve skips its warming pass and writes the files from the store.
 */
SavedCheckpoints saveCheckpoints(const ExperimentPlan &plan,
                                 const SampleSpec &spec,
                                 const SweepOptions &options,
                                 const std::string &dir);

} // namespace eole

#endif // EOLE_SIM_SAMPLE_SAMPLE_HH

/**
 * @file
 * Experiment infrastructure: per-cell results, run-length knobs and
 * paper-style table formatting (grids run through sim/sweep.hh).
 *
 * Run lengths follow DESIGN.md §5: each (config, workload) pair warms
 * all structures for EOLE_WARMUP µ-ops (default 1M) and measures for
 * EOLE_INSTS µ-ops (default 5M). Both are overridable through the
 * environment so CI can run short and paper-grade runs can go long.
 */

#ifndef EOLE_SIM_EXPERIMENT_HH
#define EOLE_SIM_EXPERIMENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "sim/config.hh"

namespace eole {

/** Result of one simulation run. */
struct RunResult
{
    std::string config;
    std::string workload;
    std::uint64_t seed = 0;  //!< per-job seed the cell ran with

    /**
     * The cell's complete canonical configuration map
     * (sim/params.hh configKeyValues of the plan's config, before the
     * per-job seed override), embedded so artifacts record what a
     * config *was*, not just its name — `eole diff` reports config
     * drift from it. Empty only for artifacts read from the legacy
     * v1 schema.
     */
    std::vector<std::pair<std::string, std::string>> params;

    StatRecord stats;

    double ipc() const { return stats.get("ipc"); }
};

/** µ-ops to warm up (EOLE_WARMUP env var, default 1,000,000). */
std::uint64_t warmupUops();

/** µ-ops to measure (EOLE_INSTS env var, default 5,000,000). */
std::uint64_t measureUops();

/** Worker threads for grids (EOLE_THREADS env var, default = cores). */
int runnerThreads();

/** Find a result in a grid (fatal if absent). */
const RunResult &findResult(const std::vector<RunResult> &results,
                            const std::string &config,
                            const std::string &workload);

/** Geometric mean of a vector of ratios. */
double geomean(const std::vector<double> &xs);

/**
 * Print a paper-style table: one row per workload, one column per
 * configuration, cell = stat value; followed by a geometric-mean row
 * when the stat is a speedup.
 *
 * @param title table heading
 * @param results the grid
 * @param cfg_names column order
 * @param stat stat to show (e.g. "ipc", "offload_frac")
 * @param normalize_to config name whose value divides each row
 *        (empty = absolute values)
 */
void printTable(const std::string &title,
                const std::vector<RunResult> &results,
                const std::vector<std::string> &cfg_names,
                const std::vector<std::string> &workload_names,
                const std::string &stat,
                const std::string &normalize_to = "");

} // namespace eole

#endif // EOLE_SIM_EXPERIMENT_HH

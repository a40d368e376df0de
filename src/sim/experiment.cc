#include "sim/experiment.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/env.hh"
#include "common/logging.hh"

namespace eole {

std::uint64_t
warmupUops()
{
    return envU64("EOLE_WARMUP", defaultWarmupUops);
}

std::uint64_t
measureUops()
{
    return envU64("EOLE_INSTS", defaultMeasureUops);
}

int
runnerThreads()
{
    const auto hw = std::thread::hardware_concurrency();
    return static_cast<int>(envU64("EOLE_THREADS", hw ? hw : 4));
}

const RunResult &
findResult(const std::vector<RunResult> &results, const std::string &config,
           const std::string &workload)
{
    for (const auto &r : results) {
        if (r.config == config && r.workload == workload)
            return r;
    }
    fatal("no result for (%s, %s)", config.c_str(), workload.c_str());
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : xs)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

void
printTable(const std::string &title, const std::vector<RunResult> &results,
           const std::vector<std::string> &cfg_names,
           const std::vector<std::string> &workload_names,
           const std::string &stat, const std::string &normalize_to)
{
    std::printf("\n== %s ==\n", title.c_str());
    std::printf("%-14s", "benchmark");
    for (const auto &c : cfg_names)
        std::printf(" %22s", c.c_str());
    std::printf("\n");

    std::vector<std::vector<double>> columns(cfg_names.size());
    for (const auto &w : workload_names) {
        std::printf("%-14s", w.c_str());
        double base = 1.0;
        if (!normalize_to.empty())
            base = findResult(results, normalize_to, w).stats.get(stat);
        for (std::size_t c = 0; c < cfg_names.size(); ++c) {
            const double v =
                findResult(results, cfg_names[c], w).stats.get(stat);
            const double shown = normalize_to.empty() ? v : v / base;
            columns[c].push_back(shown);
            std::printf(" %22.3f", shown);
        }
        std::printf("\n");
    }
    std::printf("%-14s", normalize_to.empty() ? "mean" : "geomean");
    for (std::size_t c = 0; c < cfg_names.size(); ++c) {
        double m;
        if (normalize_to.empty()) {
            double sum = 0.0;
            for (double v : columns[c])
                sum += v;
            m = columns[c].empty() ? 0.0 : sum / columns[c].size();
        } else {
            m = geomean(columns[c]);
        }
        std::printf(" %22.3f", m);
    }
    std::printf("\n");
    std::fflush(stdout);
}

} // namespace eole

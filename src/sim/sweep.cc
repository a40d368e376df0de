#include "sim/sweep.hh"

#include <cstdio>

namespace eole {

const RunResult *
PlanResult::find(const std::string &config, const std::string &workload) const
{
    for (const RunResult &c : cells) {
        if (c.config == config && c.workload == workload)
            return &c;
    }
    return nullptr;
}

namespace {

/**
 * One paper-style table: a row per workload, a column per config, cell
 * = @p stat; then a mean row, or a geometric-mean row when each row is
 * normalized to the @p normalize_to config. Every (column, row) cell
 * must be present in @p result.
 */
void
printTable(const std::string &title, const PlanResult &result,
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
            base = result.find(normalize_to, w)->stats.get(stat);
        for (std::size_t c = 0; c < cfg_names.size(); ++c) {
            const double v = result.find(cfg_names[c], w)->stats.get(stat);
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
}

} // namespace

void
printPlanTables(const ExperimentPlan &plan, const PlanResult &result)
{
    for (const TableSpec &table : plan.tables) {
        // A row is printable when every column cell (and the normalizer
        // cell) survived the filter.
        std::vector<std::string> rows;
        for (const std::string &w : plan.workloads) {
            bool whole = true;
            for (const std::string &c : table.columns)
                whole = whole && result.find(c, w) != nullptr;
            if (!table.normalizeTo.empty())
                whole = whole && result.find(table.normalizeTo, w) != nullptr;
            if (whole)
                rows.push_back(w);
        }
        if (rows.empty()) {
            std::printf("\n== %s == (no cells matched filter \"%s\")\n",
                        table.title.c_str(), result.filter.c_str());
            continue;
        }
        printTable(table.title, result, table.columns, rows, table.stat,
                   table.normalizeTo);
    }
    std::fflush(stdout);
}

} // namespace eole

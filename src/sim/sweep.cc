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
        printTable(table.title, result.cells, table.columns, rows,
                   table.stat, table.normalizeTo);
    }
    std::fflush(stdout);
}

} // namespace eole

#include "common/profiler.hh"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <ostream>

#include "common/logging.hh"

namespace eole {
namespace prof {

namespace {

struct Slot {
    std::atomic<std::uint64_t> nanos{0};
    std::atomic<std::uint64_t> count{0};
};

Slot g_slots[NumSections];

bool
envEnabled()
{
    const char *v = std::getenv("EOLE_PROF");
    return v && v[0] && std::strcmp(v, "0") != 0;
}

std::atomic<bool> g_enabled{envEnabled()};

} // namespace

const char *
sectionName(Section s)
{
    switch (s) {
      case StageFetch: return "stage.fetch";
      case StageRename: return "stage.rename";
      case StageDispatch: return "stage.dispatch";
      case StageIssue: return "stage.issue";
      case StageCompletion: return "stage.completion";
      case StageLevt: return "stage.levt";
      case StageCommit: return "stage.commit";
      case StageOther: return "stage.other";
      case ModelVpred: return "model.vpred";
      case ModelBpred: return "model.bpred";
      case ModelMem: return "model.mem";
      case WarmFunctional: return "warm.functional";
      case WarmRestore: return "warm.restore";
      default: return "unknown";
    }
}

Section
stageSection(const char *stage_name)
{
    if (!std::strcmp(stage_name, "fetch")) return StageFetch;
    if (!std::strcmp(stage_name, "rename")) return StageRename;
    if (!std::strcmp(stage_name, "dispatch")) return StageDispatch;
    if (!std::strcmp(stage_name, "issue")) return StageIssue;
    if (!std::strcmp(stage_name, "completion")) return StageCompletion;
    if (!std::strcmp(stage_name, "levt")) return StageLevt;
    if (!std::strcmp(stage_name, "commit")) return StageCommit;
    return StageOther;
}

bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

void
setEnabled(bool on)
{
    g_enabled.store(on, std::memory_order_relaxed);
}

void
reset()
{
    for (auto &slot : g_slots) {
        slot.nanos.store(0, std::memory_order_relaxed);
        slot.count.store(0, std::memory_order_relaxed);
    }
}

std::uint64_t
sectionNanos(Section s)
{
    return g_slots[s].nanos.load(std::memory_order_relaxed);
}

std::uint64_t
sectionCount(Section s)
{
    return g_slots[s].count.load(std::memory_order_relaxed);
}

void
add(Section s, std::uint64_t nanos)
{
    g_slots[s].nanos.fetch_add(nanos, std::memory_order_relaxed);
    g_slots[s].count.fetch_add(1, std::memory_order_relaxed);
}

void
writeTable(std::ostream &os)
{
    auto topLevel = [](Section s) {
        return s <= StageOther || s == WarmFunctional || s == WarmRestore;
    };
    double total = 0.0;
    for (int i = 0; i < NumSections; ++i) {
        const auto s = static_cast<Section>(i);
        if (topLevel(s))
            total += sectionNanos(s) * 1e-9;
    }
    auto row = [&](const char *name, double secs, const char *note) {
        os << csprintf("  %-16s %9.3f s %6.1f%%%s\n", name, secs,
                       total > 0.0 ? 100.0 * secs / total : 0.0, note);
    };
    for (int i = 0; i < NumSections; ++i) {
        const auto s = static_cast<Section>(i);
        if (sectionNanos(s)) {
            row(sectionName(s), sectionNanos(s) * 1e-9,
                topLevel(s) ? "" : "  (within stage)");
        }
    }
    row("total", total, "");
}

} // namespace prof
} // namespace eole

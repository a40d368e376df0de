#include "pipeline/core.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <sstream>

#include "common/logging.hh"
#include "isa/checkpoint.hh"

namespace eole {

Core::Core(const SimConfig &config, const Workload &workload)
    : Core(config, workload, buildDefaultPipeline(config))
{
}

Core::Core(const SimConfig &config, const Workload &workload,
           StagePipeline pipeline)
    : state(std::make_unique<PipelineState>(config, workload)),
      pipe(std::move(pipeline))
{
    pipe.wire();
    state->setSquashOrder(pipe.squashOrder);
    stageSections.reserve(pipe.stages.size());
    for (const auto &stage : pipe.stages)
        stageSections.push_back(prof::stageSection(stage->name()));
}

Core::~Core() = default;

void
Core::tick()
{
    state->beginCycle();
    if (!prof::enabled()) {
        for (const auto &stage : pipe.stages)
            stage->tick(*state);
    } else {
        // Chained timestamps, not one ScopedTimer per stage: each
        // clock read both ends stage i and starts stage i+1, so the
        // whole tick body — including the reads themselves — lands in
        // some stage section and the per-cycle overhead is halved.
        // Gapped per-stage timers leave the read cost unattributed,
        // which at sub-µs stage ticks is a double-digit share of the
        // profiled run.
        auto t = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < pipe.stages.size(); ++i) {
            pipe.stages[i]->tick(*state);
            const auto t2 = std::chrono::steady_clock::now();
            prof::add(stageSections[i], static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    t2 - t).count()));
            t = t2;
        }
    }
    state->endCycle();
}

bool
Core::skipIdleCycles(Cycle budget)
{
    // Fetch side first: its checks are the cheapest to fail, and the
    // completion stage's wheel walk is left for when all else is idle.
    Cycle next = invalidCycle;
    for (auto it = pipe.stages.rbegin(); it != pipe.stages.rend(); ++it) {
        const Cycle c = (*it)->nextActiveCycle(*state);
        if (c <= state->now)
            return false;
        next = std::min(next, c);
    }
    // Every stage waiting on another one is a deadlock (or a drained
    // trace, which run() handles): keep ticking as before.
    if (next == invalidCycle)
        return false;
    const Cycle n = std::min(next - state->now, budget);
    for (const auto &stage : pipe.stages)
        stage->skipIdle(*state, n);
    state->now += n;
    state->cycles += n;
    return true;
}

std::uint64_t
Core::run(std::uint64_t target_commits, std::uint64_t max_cycles)
{
    const std::uint64_t start_commits = state->committedUops;
    const Cycle start_cycle = state->now;
    const PipelineState &st = *state;
    // Sizes of every inter-stage structure: a tick that leaves them
    // all unchanged most likely left the core quiescent, and only then
    // is the idle-skip probe worth its cost.
    const auto footprint = [&st] {
        return std::array<std::size_t, 5>{
            st.completions.size(), st.rob.size(), st.iq.size(),
            st.renameOut.size(), st.frontPipe.size()};
    };
    bool idle = false;
    while (state->committedUops - start_commits < target_commits
           && state->now - start_cycle < max_cycles) {
        if (state->rob.empty() && state->renameOut.empty()
            && state->frontPipe.empty() && !state->ts.hasNext()) {
            break;  // trace drained
        }
        if (idle) {
            idle = false;
            // Re-test the loop bounds after a jump: it may end exactly
            // at max_cycles.
            if (skipIdleCycles(max_cycles - (state->now - start_cycle)))
                continue;
        }
        const auto before = footprint();
        tick();
        idle = footprint() == before;
    }
    return state->committedUops - start_commits;
}

void
Core::resetStats()
{
    state->resetStats();
    for (const auto &stage : pipe.stages)
        stage->resetStats();
}

void
Core::resetTiming()
{
    resetStats();
    state->mem->resetStats();
}

void
Core::functionalWarm(const FrozenTrace &trace, std::uint64_t begin,
                     std::uint64_t end)
{
    fatal_if(begin > end || end > trace.uops.size(),
             "functionalWarm [%llu, %llu) outside the %zu-µ-op trace",
             (unsigned long long)begin, (unsigned long long)end,
             trace.uops.size());

    prof::ScopedTimer timer(prof::WarmFunctional);
    state->mem->syncWarmClock(state->now);
    for (std::uint64_t i = begin; i < end; ++i) {
        const TraceUop &u = trace.uops[i];
        state->bu->warmUpdate(u);
        if (state->vp)
            state->vp->warmUpdate(u);
        state->mem->warmUpdate(u);
    }
    // Detailed simulation resumes after the warming pseudo-cycles so
    // every warmed fill/busy time is already in the past.
    state->now = std::max(state->now, state->mem->warmClockNow());
}

void
Core::captureWarmState(Checkpoint &ckpt) const
{
    ckpt.config = state->cfg.name;
    ckpt.uarch.clear();
    const auto capture = [&](const char *name,
                             const WarmableComponent &c) {
        std::ostringstream os;
        c.snapshotState(os);
        ckpt.uarch.emplace_back(name, os.str());
    };
    capture("branch", *state->bu);
    if (state->vp)
        capture("vpred", *state->vp);
    capture("mem", *state->mem);
}

void
Core::restoreWarmState(const Checkpoint &ckpt)
{
    if (!ckpt.hasWarmState())
        return;

    prof::ScopedTimer timer(prof::WarmRestore);

    // The section set must match this core's component set exactly: a
    // checkpoint from a different configuration (e.g. with value
    // prediction when this core has none) is an operator error, not
    // something to silently half-restore.
    std::size_t restored = 0;
    for (const auto &[name, payload] : ckpt.uarch) {
        WarmableComponent *target = nullptr;
        if (name == "branch")
            target = state->bu.get();
        else if (name == "vpred")
            target = state->vp.get();
        else if (name == "mem")
            target = state->mem.get();
        fatal_if(name == "vpred" && state->vp == nullptr,
                 "checkpoint carries a \"vpred\" section but this "
                 "configuration has no value predictor");
        fatal_if(target == nullptr,
                 "checkpoint section \"%s\" matches no warmable "
                 "component", name.c_str());
        std::istringstream is(payload);
        target->restoreState(is);
        ++restored;
    }
    const std::size_t expected = 2 + (state->vp ? 1 : 0);
    fatal_if(restored != expected,
             "checkpoint restores %zu of %zu warmable components "
             "(value prediction %s in this configuration)",
             restored, expected, state->vp ? "on" : "off");

    // Detailed simulation resumes after the restored warming
    // pseudo-cycles, exactly as after a live functionalWarm pass.
    state->now = std::max(state->now, state->mem->warmClockNow());
}

const CoreStats &
Core::stats() const
{
    aggregated = CoreStats{};
    state->addStats(aggregated);
    for (const auto &stage : pipe.stages)
        stage->addStats(aggregated);
    return aggregated;
}

StatRecord
Core::record() const
{
    StatRecord r = stats().record();
    r.addAll("mem.", state->mem->record());
    return r;
}

} // namespace eole

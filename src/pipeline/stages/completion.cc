#include "pipeline/stages/completion.hh"

#include <algorithm>

#include "common/pipetrace.hh"
#include "pipeline/pipeline_state.hh"

namespace eole {

void
CompletionStage::tick(PipelineState &st)
{
    // Note completeCycle is stamped with st.now, not the scheduled
    // ready cycle: after a forward time jump (functional warm) a
    // stale entry completes when the clock next observes it, exactly
    // as the ordered-map drain this wheel replaced behaved.
    st.completions.drainUpTo(st.now, [&](Cycle, const DynInstPtr &di) {
        if (di->squashed)
            return;
        di->completed = true;
        di->completeCycle = st.now;
        if (st.tracer && st.tracer->wants(di->seq))
            st.tracer->event(st.now, di->seq, PipeEvent::Complete);
        if (di->isBranch() && di->bp.mispredict && !di->lateExecBranch)
            st.resolveMispredictedBranch(di);
    });
}

Cycle
CompletionStage::nextActiveCycle(PipelineState &st) const
{
    // The next scheduled completion; entries left behind a forward
    // clock jump drain (and complete at st.now) on the next tick.
    return std::max(st.now, st.completions.nextEventCycle());
}

} // namespace eole

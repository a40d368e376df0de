/**
 * @file
 * The pipeline stage interface.
 *
 * Each stage of the EOLE core (fetch, rename+EE, dispatch, issue,
 * completion, LE/VT, commit) is a separate object implementing this
 * interface and operating on the shared PipelineState substrate. The
 * Core conductor ticks the stages in reverse pipeline order each cycle
 * and routes squash/redirect events to every stage; stages own their
 * statistics and fold them into the aggregate CoreStats on demand.
 *
 * Quiescence contract (the whole-core idle-cycle skip, Core::run): a
 * stage reports the earliest cycle its tick() could next change state
 * (nextActiveCycle) and accrues in bulk the per-cycle counters an idle
 * tick() would have counted (skipIdle). When every stage is idle the
 * Core jumps the clock to the stages' minimum instead of ticking
 * through cycles in which nothing can happen. The default promises
 * nothing (the stage may act every cycle), which turns skipping off
 * for the whole core. A subclass that overrides tick() inherits its
 * parent's promise, so it must keep the parent's idle behaviour (an
 * observer that only counts what the parent did is fine) or override
 * nextActiveCycle() as well.
 */

#ifndef EOLE_PIPELINE_STAGES_STAGE_HH
#define EOLE_PIPELINE_STAGES_STAGE_HH

#include "common/types.hh"

namespace eole {

struct CoreStats;
struct PipelineState;

class Stage
{
  public:
    virtual ~Stage() = default;

    /** Stable identifier ("fetch", "rename", ... ); used by benches
     *  and the pipeline builder to locate/replace stages. */
    virtual const char *name() const = 0;

    /** Do one cycle of this stage's work. */
    virtual void tick(PipelineState &st) = 0;

    /**
     * The earliest cycle >= st.now at which tick() could change any
     * state other than the counters skipIdle() accrues, assuming no
     * other stage acts first; invalidCycle if never (only another
     * stage can unblock it). Must test in tick()'s own order and call
     * nothing tick() would not call in the same state (@p st is
     * mutable only because the trace source's hasNext() may generate
     * the next µ-op). The default, st.now, turns the idle-cycle skip
     * off.
     */
    virtual Cycle nextActiveCycle(PipelineState &st) const;

    /** Add exactly the statistics @p n consecutive tick()s would have
     *  counted, starting at st.now, when nextActiveCycle() is at least
     *  st.now + n and no other stage acts in between. */
    virtual void skipIdle(const PipelineState &st, Cycle n);

    /**
     * A full pipeline squash is unwinding everything younger than
     * @p keep_seq: drop/repair this stage's in-flight state. Stages are
     * invoked in PipelineState::squashAfter's fixed unwind order
     * (rename-map restores must run youngest-first across stages).
     */
    virtual void squash(PipelineState &st, SeqNum keep_seq,
                        Cycle resume_fetch_at);

    /** Fetch was redirected by a resolved branch without a full squash
     *  (nothing younger was fetched): drop front-end speculative state. */
    virtual void onFetchRedirect(PipelineState &st);

    /** Zero this stage's statistics (end of warmup). */
    virtual void resetStats();

    /** Fold this stage's counters into the aggregate record. */
    virtual void addStats(CoreStats &out) const;
};

inline void
Stage::squash(PipelineState &, SeqNum, Cycle)
{
}

inline void
Stage::onFetchRedirect(PipelineState &)
{
}

inline void
Stage::skipIdle(const PipelineState &, Cycle)
{
}

inline void
Stage::resetStats()
{
}

inline void
Stage::addStats(CoreStats &) const
{
}

} // namespace eole

#endif // EOLE_PIPELINE_STAGES_STAGE_HH

#include "pipeline/stages/fetch.hh"

#include <algorithm>

#include "common/pipetrace.hh"
#include "common/profiler.hh"
#include "isa/opcodes.hh"
#include "pipeline/pipeline_state.hh"

namespace eole {

FetchStage::FetchStage(const SimConfig &cfg)
    : fetchWidth(cfg.fetchWidth),
      maxTakenBranchesPerFetch(cfg.maxTakenBranchesPerFetch),
      btbMissBubble(cfg.btbMissBubble), l1iHitLatency(cfg.mem.l1i.latency)
{
}

void
FetchStage::tick(PipelineState &st)
{
    if (st.fetchBlockedOnBranch || st.now < st.fetchStallUntil)
        return;

    int fetched = 0;
    int taken_branches = 0;
    Addr cur_line = ~0ULL;

    while (fetched < fetchWidth && st.ts.hasNext()
           && st.frontPipe.canPush(st.now)) {
        const TraceUop &peek = st.ts.peek();
        const Addr line = st.mem->fetchLine(peek.pc);
        if (line != cur_line) {
            prof::ScopedTimer mem_timer(prof::ModelMem);
            const Cycle ready = st.mem->fetchAccess(peek.pc, st.now);
            const Cycle hit_time = st.now + l1iHitLatency;
            if (ready > hit_time) {
                // I-cache miss: stall fetch until the line arrives.
                st.fetchStallUntil = ready;
                break;
            }
            cur_line = line;
        }

        DynInstPtr di = st.dynInstPool.allocate();
        di->seq = st.ts.nextSeq();
        di->uopP = &st.ts.fetch();
        di->fetchCycle = st.now;

        // Value prediction at fetch (§4.2). Writes to the int zero
        // register are architecturally dropped and not predicted.
        if (st.vp && di->uop().vpPredictable()) {
            prof::ScopedTimer vp_timer(prof::ModelVpred);
            di->vp = st.vp->predict(di->uop().pc);
            di->vpLookupValid = true;
            if (di->vp.confident) {
                di->predictionUsed = true;
                di->predictedValue = di->vp.value;
            }
        }

        bool stop_after = false;
        if (di->uop().isBranch()) {
            prof::ScopedTimer bp_timer(prof::ModelBpred);
            di->bp = st.bu->predictBranch(di->uop(), di->preSnap);
            if (di->bp.mispredict) {
                // Fetch stalls on the wrong path until resolution.
                st.fetchBlockedOnBranch = di;
                stop_after = true;
            } else if (di->bp.btbMiss && di->bp.predTaken) {
                // Taken without a BTB target: decode-redirect bubble.
                st.fetchStallUntil = st.now + btbMissBubble;
                ++s.btbMissBubbles;
                stop_after = true;
            } else if (di->bp.predTaken
                       && ++taken_branches >= maxTakenBranchesPerFetch) {
                stop_after = true;
            }
        }
        di->postSnap = st.bu->currentSnapshot();

        if (st.tracer && st.tracer->wants(di->seq)) {
            st.tracer->fetch(st.now, di->seq, di->uop().pc,
                             opcodeName(di->uop().opc),
                             di->vpLookupValid ? vpLookupAnnot(di->vp) : "");
        }

        st.frontPipe.push(st.now, std::move(di));
        ++fetched;
        if (stop_after)
            break;
    }
}

Cycle
FetchStage::nextActiveCycle(PipelineState &st) const
{
    if (st.fetchBlockedOnBranch)
        return invalidCycle;  // until the branch resolves
    if (st.now < st.fetchStallUntil)
        return st.fetchStallUntil;
    // A fresh cycle has its whole push bandwidth, so only a full pipe
    // stops the first fetch (which at least accesses the I-cache).
    return st.ts.hasNext() && !st.frontPipe.atCapacity() ? st.now
                                                         : invalidCycle;
}

void
FetchStage::squash(PipelineState &st, SeqNum keep_seq, Cycle resume_fetch_at)
{
    // Front-end pipe entries are not renamed; just squash them.
    st.frontPipe.removeIf([&](const DynInstPtr &di) {
        if (di->seq > keep_seq) {
            st.markSquashed(di);
            return true;
        }
        return false;
    });

    if (st.fetchBlockedOnBranch && st.fetchBlockedOnBranch->seq > keep_seq)
        st.fetchBlockedOnBranch.reset();
    st.fetchStallUntil = std::max(st.fetchStallUntil, resume_fetch_at);
}

void
FetchStage::resetStats()
{
    s = Stats{};
}

void
FetchStage::addStats(CoreStats &out) const
{
    out.btbMissBubbles += s.btbMissBubbles;
}

} // namespace eole

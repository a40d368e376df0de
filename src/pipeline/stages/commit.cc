#include "pipeline/stages/commit.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/pipetrace.hh"
#include "common/profiler.hh"
#include "isa/functional.hh"
#include "pipeline/pipeline_state.hh"
#include "pipeline/stages/levt.hh"

namespace eole {

CommitStage::CommitStage(const SimConfig &cfg, LevtStage *levt_)
    : commitWidth(cfg.commitWidth),
      retireDelay(1 + cfg.preCommitCycles()), levt(levt_)
{
}

bool
CommitStage::readyToRetire(const PipelineState &st, const DynInst &di) const
{
    // completeCycle is the execution-completion cycle for OoO µ-ops,
    // the dispatch cycle for EE'd / late-executable µ-ops. retireDelay
    // is the writeback->commit stage plus the LE/VT stage when value
    // prediction is on (§4.1).
    if (!di.completed && !di.lateExecutable())
        return false;
    return di.dispatched && st.now >= di.completeCycle + retireDelay;
}

void
CommitStage::tick(PipelineState &st)
{
    int committed = 0;
    while (committed < commitWidth && !st.rob.empty()) {
        // Examine the head through a reference (no refcount traffic);
        // the handle is moved out of the ROB at the retire step below,
        // after which `di` must not be touched.
        const DynInstPtr &di = st.rob.front();
        if (!readyToRetire(st, *di))
            break;

        // LE/VT read-port accounting (§6.3).
        if (levt && !levt->reservePorts(st, *di))
            break;

        // Late Execution happens here, in the pre-commit stage.
        if (levt && di->lateExecutable())
            levt->lateExecute(st, di);

        // --- Validation (predicted µ-ops) ---
        const bool value_mispredict = levt && levt->validate(st, di);

        // --- Lockstep oracle check (self-verification) ---
        if (di->hasDst()) {
            panic_if(di->computedValue != di->uop().result,
                     "oracle mismatch @%llu pc=%#llx %s: got %#llx "
                     "expected %#llx",
                     (unsigned long long)di->seq,
                     (unsigned long long)di->uop().pc,
                     opcodeName(di->uop().opc),
                     (unsigned long long)di->computedValue,
                     (unsigned long long)di->uop().result);
        } else if (di->isStore()) {
            panic_if(di->storeData != di->uop().result
                         || di->effAddr != di->uop().effAddr,
                     "store oracle mismatch @%llu",
                     (unsigned long long)di->seq);
        }

        if (st.onCommit)
            st.onCommit(*di);

        // --- Training ---
        if (levt)
            levt->train(st, di);
        if (di->isBranch()) {
            prof::ScopedTimer bp_timer(prof::ModelBpred);
            st.bu->commitBranch(di->uop(), di->bp);
        }
        if (di->isStore()) {
            prof::ScopedTimer mem_timer(prof::ModelMem);
            st.mem->storeAccess(di->uop().pc, di->effAddr, st.now);
        }

        // --- Statistics ---
        ++st.committedUops;
        if (di->uop().isCondBr()) {
            ++s.condBranches;
            if (di->bp.highConf)
                ++s.highConfBranches;
        }
        if (di->uop().vpEligible())
            ++s.vpEligible;
        if (di->predictionUsed)
            ++s.vpPredictionsUsed;
        if (di->earlyExecuted)
            ++s.earlyExecuted;
        if (di->isLoad())
            ++s.loads;
        if (di->isStore())
            ++s.stores;

        if (st.tracer && st.tracer->wants(di->seq)) {
            const char *annot = !di->predictionUsed ? ""
                : value_mispredict ? "vp=wrong" : "vp=ok";
            st.tracer->commit(st.now, di->seq, annot);
        }

        // --- Retire ---
        if (di->oldPhysDst != invalidReg)
            st.prfOf(di->uop().dstClass).freeReg(di->oldPhysDst);
        const DynInstPtr done = st.rob.popFront();  // `di` dangles now
        if (done->isLoad())
            st.lq.popFront();
        if (done->isStore())
            st.sq.popFront();
        st.ts.retireUpTo(done->seq);
        ++committed;

        if (value_mispredict) {
            st.squashAfter(done->seq, done->postSnap, st.now + 1);
            break;
        }
    }
}

Cycle
CommitStage::nextActiveCycle(PipelineState &st) const
{
    // readyToRetire() of the head (dispatched, as all ROB entries
    // are), solved for the cycle. Once the head may retire, commit
    // retires it: a fresh cycle's LE/VT read ports always cover one
    // µ-op (PipelineState rejects 1-port banks).
    if (st.rob.empty())
        return invalidCycle;
    const DynInst &head = *st.rob.front();
    if (!head.completed && !head.lateExecutable())
        return invalidCycle;  // waits for a completion event
    return std::max(st.now, head.completeCycle + retireDelay);
}

void
CommitStage::squash(PipelineState &st, SeqNum keep_seq, Cycle)
{
    // Youngest first out of the ROB; the LSQ tails mirror it.
    while (!st.rob.empty() && st.rob.back()->seq > keep_seq) {
        DynInstPtr di = st.rob.popBack();
        st.undoRename(di);
        st.markSquashed(di);
    }
    while (!st.lq.empty() && st.lq.back()->seq > keep_seq)
        st.lq.popBack();
    while (!st.sq.empty() && st.sq.back()->seq > keep_seq)
        st.sq.popBack();
}

void
CommitStage::resetStats()
{
    s = Stats{};
}

void
CommitStage::addStats(CoreStats &out) const
{
    out.condBranches += s.condBranches;
    out.highConfBranches += s.highConfBranches;
    out.vpEligible += s.vpEligible;
    out.vpPredictionsUsed += s.vpPredictionsUsed;
    out.earlyExecuted += s.earlyExecuted;
    out.loads += s.loads;
    out.stores += s.stores;
}

} // namespace eole

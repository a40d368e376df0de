#include "pipeline/stages/levt.hh"

#include "common/logging.hh"
#include "common/pipetrace.hh"
#include "common/profiler.hh"
#include "isa/functional.hh"
#include "pipeline/pipeline_state.hh"

namespace eole {

LevtStage::LevtStage(const SimConfig &cfg) : vpEnabled(cfg.vpEnabled())
{
}

void
LevtStage::tick(PipelineState &)
{
    // Work happens at the ROB head, driven by CommitStage (see the
    // file comment); nothing to do on the free-running tick.
}

Cycle
LevtStage::nextActiveCycle(PipelineState &) const
{
    return invalidCycle;  // its work is commit's (see tick)
}

int
LevtStage::readNeeds(const PipelineState &st, const DynInst &di,
                     int *banks_out) const
{
    int n = 0;
    if (di.lateExecutable()) {
        // Operand reads for Late Execution.
        for (int i = 0; i < 2; ++i) {
            const RegIndex src = i == 0 ? di.uop().src1 : di.uop().src2;
            if (src == invalidReg)
                continue;
            banks_out[n++] = st.bankOfReg(di.uop().srcClass[i], di.physSrc[i]);
        }
    } else if (di.uop().vpEligible() && vpEnabled) {
        // Validation (predicted) / training (all eligible) result read.
        banks_out[n++] = st.bankOfReg(di.uop().dstClass, di.physDst);
    }
    return n;
}

bool
LevtStage::reservePorts(PipelineState &st, const DynInst &di)
{
    int banks[4];
    const int nreads = readNeeds(st, di, banks);
    if (nreads > 0 && !st.ports.tryLevtReads(banks, nreads)) {
        ++s.commitPortStalls;
        return false;
    }
    return true;
}

void
LevtStage::lateExecute(PipelineState &st, const DynInstPtr &di)
{
    if (di->lateExecAlu) {
        const RegVal a = st.readOperand(*di, 0);
        const RegVal b = st.readOperand(*di, 1);
        di->computedValue = execAlu(di->uop().opc, a, b, di->uop().imm);
        di->hasComputedValue = true;
        di->completed = true;
        ++s.lateExecutedAlu;
        if (st.tracer && st.tracer->wants(di->seq))
            st.tracer->event(st.now, di->seq, PipeEvent::Exec, "le=alu");
    } else if (di->lateExecBranch) {
        di->completed = true;
        ++s.lateExecutedBranches;
        if (st.tracer && st.tracer->wants(di->seq))
            st.tracer->event(st.now, di->seq, PipeEvent::Exec, "le=br");
        if (di->bp.mispredict)
            st.resolveMispredictedBranch(di);
    }
}

bool
LevtStage::validate(PipelineState &st, const DynInstPtr &di)
{
    if (!di->predictionUsed)
        return false;
    panic_if(!di->hasComputedValue,
             "predicted µ-op %llu commits without a result",
             (unsigned long long)di->seq);
    const bool mispredict = di->computedValue != di->predictedValue;
    if (!mispredict) {
        ++s.vpCorrectUsed;
    } else {
        ++s.vpMispredictSquashes;
        // Fix the PRF if the prediction was still live there.
        st.prfOf(di->uop().dstClass).overwriteValue(di->physDst,
                                                  di->computedValue);
    }
    return mispredict;
}

void
LevtStage::train(PipelineState &st, const DynInstPtr &di)
{
    if (vpEnabled && di->vpLookupValid) {
        prof::ScopedTimer vp_timer(prof::ModelVpred);
        st.vp->commit(di->uop().pc, di->uop().result, di->vp);
    }
}

void
LevtStage::resetStats()
{
    s = Stats{};
}

void
LevtStage::addStats(CoreStats &out) const
{
    out.lateExecutedAlu += s.lateExecutedAlu;
    out.lateExecutedBranches += s.lateExecutedBranches;
    out.vpCorrectUsed += s.vpCorrectUsed;
    out.vpMispredictSquashes += s.vpMispredictSquashes;
    out.commitPortStalls += s.commitPortStalls;
}

} // namespace eole

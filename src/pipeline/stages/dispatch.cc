#include "pipeline/stages/dispatch.hh"

#include "common/pipetrace.hh"
#include "pipeline/pipeline_state.hh"

namespace eole {

DispatchStage::DispatchStage(const SimConfig &cfg)
    : dispatchWidth(cfg.dispatchWidth), iqEntries(cfg.iqEntries)
{
}

void
DispatchStage::tick(PipelineState &st)
{
    int dispatched = 0;
    while (dispatched < dispatchWidth && !st.renameOut.empty()) {
        // Run the stall checks through a reference (most iterations end
        // in a break); the handle moves out only once dispatch is
        // certain.
        DynInstPtr &head = st.renameOut.front();

        const Hazard hazard = hazardOf(st, *head);
        if (hazard != Hazard::None) {
            countStall(hazard, 1);
            break;
        }

        // EE results and used predictions are written to the PRF at
        // dispatch, consuming constrained write ports (§6.3).
        if (head->physDst != invalidReg
            && (head->earlyExecuted || head->predictionUsed)) {
            const int bank = st.bankOfReg(head->uop().dstClass, head->physDst);
            if (!st.ports.tryEeWrite(bank)) {
                ++s.dispatchPortStalls;
                break;
            }
            const RegVal v = head->earlyExecuted ? head->computedValue
                                                 : head->predictedValue;
            st.prfOf(head->uop().dstClass).write(head->physDst, v, st.now);
            ++st.iqWakeEpoch;  // a queued consumer may now be ready
        }

        DynInstPtr di = std::move(head);
        st.renameOut.pop_front();
        di->dispatched = true;
        st.rob.pushBack(di);
        if (di->isLoad())
            st.lq.pushBack(di);
        if (di->isStore())
            st.sq.pushBack(di);

        if (st.tracer && st.tracer->wants(di->seq))
            st.tracer->event(st.now, di->seq, PipeEvent::Dispatch);

        if (di->earlyExecuted || di->uop().opClass() == OpClass::NoOp) {
            di->completed = true;
            di->completeCycle = st.now;
            if (st.tracer && st.tracer->wants(di->seq))
                st.tracer->event(st.now, di->seq, PipeEvent::Complete);
        } else if (di->lateExecutable()) {
            di->completeCycle = st.now;  // LE gating base (see commit)
        } else {
            di->inIQ = true;
            st.iq.push_back(std::move(di));
            ++st.iqWakeEpoch;
            ++s.dispatchedToIQ;
        }
        ++dispatched;
    }
}

DispatchStage::Hazard
DispatchStage::hazardOf(const PipelineState &st, const DynInst &head) const
{
    if (st.rob.full())
        return Hazard::RobFull;
    if ((head.isLoad() && st.lq.full()) || (head.isStore() && st.sq.full()))
        return Hazard::LsqFull;
    const bool needs_iq = !head.bypassesOoO()
        && head.uop().opClass() != OpClass::NoOp;
    if (needs_iq && static_cast<int>(st.iq.size()) >= iqEntries)
        return Hazard::IqFull;
    return Hazard::None;
}

void
DispatchStage::countStall(Hazard h, std::uint64_t n)
{
    if (h == Hazard::RobFull)
        s.robFullStalls += n;
    else if (h == Hazard::IqFull)
        s.iqFullStalls += n;
}

Cycle
DispatchStage::nextActiveCycle(PipelineState &st) const
{
    // Past the structural hazards the head dispatches: a fresh cycle's
    // EE write ports always take one µ-op's write.
    if (st.renameOut.empty()
        || hazardOf(st, *st.renameOut.front()) != Hazard::None) {
        return invalidCycle;
    }
    return st.now;
}

void
DispatchStage::skipIdle(const PipelineState &st, Cycle n)
{
    if (!st.renameOut.empty())
        countStall(hazardOf(st, *st.renameOut.front()), n);
}

void
DispatchStage::resetStats()
{
    s = Stats{};
}

void
DispatchStage::addStats(CoreStats &out) const
{
    out.dispatchPortStalls += s.dispatchPortStalls;
    out.robFullStalls += s.robFullStalls;
    out.iqFullStalls += s.iqFullStalls;
    out.dispatchedToIQ += s.dispatchedToIQ;
}

} // namespace eole

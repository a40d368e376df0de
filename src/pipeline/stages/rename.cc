#include "pipeline/stages/rename.hh"

#include "common/pipetrace.hh"
#include "isa/functional.hh"
#include "pipeline/pipeline_state.hh"

namespace eole {

namespace {

/** Does @p u allocate a physical register? Writes to the int zero
 *  register are architecturally dropped and allocate nothing. */
bool
writesReg(const TraceUop &u)
{
    return u.hasDst() && !(u.dstClass == RegClass::Int && u.dst == 0);
}

} // namespace

RenameStage::RenameStage(const SimConfig &cfg)
    : renameWidth(cfg.renameWidth), dispatchWidth(cfg.dispatchWidth),
      prfBanks(cfg.prfBanks), earlyExec(cfg.earlyExec),
      lateExec(cfg.lateExec), lateExecBranches(cfg.lateExecBranches),
      ee(cfg.eeStages)
{
}

void
RenameStage::tick(PipelineState &st)
{
    renameGroup.clear();

    while (static_cast<int>(renameGroup.size()) < renameWidth
           && canTake(st)) {
        // Banked free-list check before consuming the µ-op.
        if (headBankStalled(st)) {
            ++s.renameBankStalls;
            break;
        }

        DynInstPtr di = st.frontPipe.pop(st.now);
        if (renameGroup.empty())
            ee.beginGroup();

        // Rename sources.
        for (int i = 0; i < 2; ++i) {
            const RegIndex src = i == 0 ? di->uop().src1 : di->uop().src2;
            if (src == invalidReg)
                continue;
            di->physSrc[i] = st.mapOf(di->uop().srcClass[i]).lookup(src);
        }

        // Rename destination (bank-aware round-robin allocation).
        if (writesReg(di->uop())) {
            PhysRegFile &f = st.prfOf(di->uop().dstClass);
            const RegIndex phys = f.allocFromBank(st.bankCursor % prfBanks);
            di->physDst = phys;
            di->oldPhysDst = st.mapOf(di->uop().dstClass).rename(di->uop().dst,
                                                               phys);
            f.markPending(phys);
            ++st.bankCursor;
        } else if (di->uop().hasDst()) {
            // Write to the int zero register: architecturally dropped.
            di->dstDropped = true;
        }
        di->renamed = true;

        // --- Early Execution (parallel with Rename, §3.2) ---
        if (earlyExec)
            (void)tryEarlyExecute(*di);

        // Publish bypass/prediction operands for EE consumers.
        if (di->physDst != invalidReg) {
            if (di->earlyExecuted) {
                ee.publish(di->uop().dstClass, di->physDst,
                           di->computedValue);
            } else if (di->predictionUsed) {
                ee.publish(di->uop().dstClass, di->physDst,
                           di->predictedValue);
            }
        }

        // --- Late Execution routing (§3.3) ---
        if (lateExec && !di->earlyExecuted && di->predictionUsed
            && isSingleCycleAlu(di->uop().opc)) {
            di->lateExecAlu = true;
        }
        if (lateExec && lateExecBranches && di->uop().isCondBr()
            && di->bp.highConf) {
            di->lateExecBranch = true;
        }

        // Store Sets bookkeeping (rename order = program order).
        if (di->isLoad() || di->isStore())
            di->dependsOnStore = st.ssets.lookupDependence(di->uop().pc);
        if (di->isStore())
            st.ssets.insertStore(di->uop().pc, di->seq);

        renameGroup.push_back(di.get());
        st.renameOut.push_back(std::move(di));
    }

    // Optional second EE stage (Fig 2): retry non-executed µ-ops with
    // the first stage's results visible.
    if (earlyExec && ee.stages() > 1) {
        for (DynInst *di : renameGroup) {
            if (di->earlyExecuted)
                continue;
            if (tryEarlyExecute(*di)) {
                ee.publish(di->uop().dstClass, di->physDst,
                           di->computedValue);
                di->lateExecAlu = false;
            }
        }
    }

    // Trace after the second-EE retry so the EE/LE disposition each
    // µ-op will carry through the pipeline is final.
    if (st.tracer) {
        for (const DynInst *di : renameGroup) {
            if (!st.tracer->wants(di->seq))
                continue;
            const char *annot = di->earlyExecuted ? "ee"
                : di->lateExecAlu ? "le=alu"
                : di->lateExecBranch ? "le=br" : "";
            st.tracer->event(st.now, di->seq, PipeEvent::Rename, annot);
        }
    }
}

bool
RenameStage::canTake(const PipelineState &st) const
{
    return st.renameOut.size() < 2 * static_cast<size_t>(dispatchWidth)
        && st.frontPipe.canPop(st.now);
}

bool
RenameStage::headBankStalled(const PipelineState &st) const
{
    const TraceUop &u = st.frontPipe.front()->uop();
    return writesReg(u)
        && !st.prfOf(u.dstClass).bankHasFree(st.bankCursor % prfBanks);
}

Cycle
RenameStage::nextActiveCycle(PipelineState &st) const
{
    if (st.renameOut.size() >= 2 * static_cast<size_t>(dispatchWidth))
        return invalidCycle;  // dispatch must drain the buffer first
    const Cycle ready = st.frontPipe.frontReadyCycle();
    if (ready > st.now)
        return ready;  // invalidCycle for an empty pipe
    return headBankStalled(st) ? invalidCycle : st.now;
}

void
RenameStage::skipIdle(const PipelineState &st, Cycle n)
{
    if (canTake(st) && headBankStalled(st))
        s.renameBankStalls += n;
}

bool
RenameStage::tryEarlyExecute(DynInst &di)
{
    if (!isSingleCycleAlu(di.uop().opc) || di.physDst == invalidReg)
        return false;

    RegVal vals[2] = {0, 0};
    for (int i = 0; i < 2; ++i) {
        const RegIndex src = i == 0 ? di.uop().src1 : di.uop().src2;
        if (src == invalidReg)
            continue;
        // The int zero register is a constant (like an immediate).
        if (di.uop().srcClass[i] == RegClass::Int && src == 0)
            continue;
        if (!ee.available(di.uop().srcClass[i], di.physSrc[i], vals[i]))
            return false;
    }

    di.computedValue = execAlu(di.uop().opc, vals[0], vals[1], di.uop().imm);
    di.hasComputedValue = true;
    di.earlyExecuted = true;
    return true;
}

void
RenameStage::squash(PipelineState &st, SeqNum keep_seq, Cycle)
{
    // Youngest first: the rename-out buffer holds µ-ops younger than
    // anything in the ROB, so its map restores must run before the ROB
    // walk (PipelineState::squashAfter orders this stage first).
    while (!st.renameOut.empty() && st.renameOut.back()->seq > keep_seq) {
        DynInstPtr di = st.renameOut.back();
        st.renameOut.pop_back();
        st.undoRename(di);
        st.markSquashed(di);
    }
    ee.reset();
}

void
RenameStage::onFetchRedirect(PipelineState &)
{
    ee.reset();
}

void
RenameStage::resetStats()
{
    s = Stats{};
}

void
RenameStage::addStats(CoreStats &out) const
{
    out.renameBankStalls += s.renameBankStalls;
}

} // namespace eole

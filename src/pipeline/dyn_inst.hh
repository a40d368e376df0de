/**
 * @file
 * Dynamic (in-flight) instruction state.
 */

#ifndef EOLE_PIPELINE_DYN_INST_HH
#define EOLE_PIPELINE_DYN_INST_HH

#include <memory>

#include "common/slab.hh"
#include "bpred/branch_unit.hh"
#include "isa/trace.hh"
#include "vpred/value_predictor.hh"

namespace eole {

/**
 * One in-flight µ-op. Created at fetch, destroyed after commit or
 * squash. Fields are grouped by the stage that fills them in.
 */
struct DynInst
{
    // --- Fetch ---
    /** The trace µ-op this in-flight instance executes. A pointer into
     *  the TraceSource's stable storage (the frozen vector, or the VM
     *  window deque — end pops never move other elements), not a copy:
     *  the source retires an entry only when commit retires the same
     *  seq, and a squashed µ-op's entry outlives every handle because
     *  it stays in the replay window until re-fetched and committed.
     *  Dropping the ~100-byte copy per µ-op is a measurable win on the
     *  fetch path and shrinks DynInst across every queue scan. */
    const TraceUop *uopP = nullptr;
    SeqNum seq = 0;
    Cycle fetchCycle = 0;
    /** Front-end speculative state after this µ-op (for squash repair). */
    BranchUnit::SnapshotPtr postSnap;

    // Branch prediction (branches only).
    BranchPrediction bp;
    BranchUnit::SnapshotPtr preSnap;

    // Value prediction (VP-eligible µ-ops only). The lookup record is
    // a flat value (no heap state), so fetch's predict() allocates
    // nothing and the slab pool's destroy/construct lap stays trivial
    // for it.
    VpLookup vp;
    bool vpLookupValid = false;
    bool predictionUsed = false;  //!< confident: written to PRF, used
    RegVal predictedValue = 0;

    // --- Rename ---
    RegIndex physDst = invalidReg;
    RegIndex oldPhysDst = invalidReg;
    RegIndex physSrc[2] = {invalidReg, invalidReg};
    bool renamed = false;

    // EOLE routing decisions (made at rename/dispatch).
    bool earlyExecuted = false;   //!< executed in the EE block
    bool lateExecAlu = false;     //!< predicted 1-cycle ALU: LE/VT stage
    bool lateExecBranch = false;  //!< very-high-confidence branch: LE/VT

    // --- Execution ---
    bool dispatched = false;
    bool inIQ = false;
    /** Both source operands have been seen ready by the issue scan.
     *  Monotone while the entry waits in the IQ — a source physical
     *  register cannot be reclaimed while its reader is in flight —
     *  so the scan skips re-polling the register file. */
    bool opsReady = false;
    /** Cycle both sources become ready, once every producer has
     *  scheduled its writeback (each physical register is written
     *  exactly once per allocation, so the value is final when known).
     *  invalidCycle while some producer is still unissued; the scan
     *  then re-polls the register file. */
    Cycle srcReadyAt = invalidCycle;
    bool issued = false;
    bool completed = false;       //!< result available / ready to retire
    Cycle completeCycle = invalidCycle;
    RegVal computedValue = 0;
    bool hasComputedValue = false;

    // Memory state.
    Addr effAddr = 0;
    bool effAddrValid = false;
    RegVal storeData = 0;
    /** Store this load must wait for (Store Sets), 0 = none. */
    SeqNum dependsOnStore = 0;

    /** Rename dropped an architectural zero-register destination, so
     *  this µ-op has no destination even though its trace µ-op names
     *  one. (Shadows the `uop.dst = invalidReg` overwrite the old
     *  by-value copy allowed; the shared trace µ-op is immutable.) */
    bool dstDropped = false;

    // --- Lifecycle ---
    bool squashed = false;

    const TraceUop &uop() const { return *uopP; }

    /** Does this µ-op produce a register result after rename? False
     *  for zero-register writes rename dropped. */
    bool hasDst() const { return !dstDropped && uopP->hasDst(); }

    bool isLoad() const { return uop().isLoad(); }
    bool isStore() const { return uop().isStore(); }
    bool isBranch() const { return uop().isBranch(); }

    /** Does this µ-op bypass the OoO engine entirely? */
    bool
    bypassesOoO() const
    {
        return earlyExecuted || lateExecAlu || lateExecBranch;
    }

    /** Can the LE/VT stage execute this µ-op at its head-of-ROB turn? */
    bool lateExecutable() const { return lateExecAlu || lateExecBranch; }
};

// Every queue scan walks DynInsts; growth here costs on every µ-op.
static_assert(sizeof(DynInst) <= 384, "DynInst grew");

/**
 * Owning handle to an in-flight µ-op. Pool-allocated (common/slab.hh)
 * from PipelineState's per-core DynInstPool instead of shared_ptr:
 * same API surface, but allocation is a free-list pop and the refcount
 * is non-atomic — DynInsts never cross threads (sweep parallelism is
 * across Cores, each single-threaded).
 */
using DynInstPtr = PooledPtr<DynInst>;
using DynInstPool = SlabPool<DynInst>;

} // namespace eole

#endif // EOLE_PIPELINE_DYN_INST_HH

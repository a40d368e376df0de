/**
 * @file
 * Rename stage with the EOLE Early Execution block (§3.2).
 *
 * Renames up to renameWidth µ-ops per cycle out of the front-end pipe
 * (bank-aware round-robin destination allocation), runs Early
 * Execution in parallel with rename on the rank of ALUs beside it,
 * publishes EE results and used predictions on the local bypass, and
 * makes the Late Execution routing decisions (§3.3). The EE block is
 * owned by this stage; its bypass state is dropped on every squash or
 * fetch redirect.
 */

#ifndef EOLE_PIPELINE_STAGES_RENAME_HH
#define EOLE_PIPELINE_STAGES_RENAME_HH

#include <vector>

#include "pipeline/dyn_inst.hh"
#include "pipeline/stages/early_exec.hh"
#include "pipeline/stages/stage.hh"
#include "sim/config.hh"

namespace eole {

class RenameStage : public Stage
{
  public:
    explicit RenameStage(const SimConfig &cfg);

    const char *name() const override { return "rename"; }
    void tick(PipelineState &st) override;
    Cycle nextActiveCycle(PipelineState &st) const override;
    void skipIdle(const PipelineState &st, Cycle n) override;
    void squash(PipelineState &st, SeqNum keep_seq,
                Cycle resume_fetch_at) override;
    void onFetchRedirect(PipelineState &st) override;
    void resetStats() override;
    void addStats(CoreStats &out) const override;

    EarlyExecBlock &earlyExecBlock() { return ee; }

  protected:
    /** Try to execute @p di on the EE block (operands from immediates,
     *  predictions and the local bypass only -- never the PRF). */
    bool tryEarlyExecute(DynInst &di);

  private:
    /** tick()'s loop guard minus the group-width term: room in the
     *  rename-out buffer and a µ-op ready in the front-end pipe. */
    bool canTake(const PipelineState &st) const;

    /** Does the front-end pipe's head find its destination bank
     *  empty (the banked free-list stall)? */
    bool headBankStalled(const PipelineState &st) const;

    struct Stats
    {
        std::uint64_t renameBankStalls = 0;
    };

    int renameWidth;
    int dispatchWidth;
    int prfBanks;
    bool earlyExec;
    bool lateExec;
    bool lateExecBranches;

    EarlyExecBlock ee;
    std::vector<DynInst *> renameGroup;   //!< scratch: this cycle's group
                                          //!< (borrowed; renameOut owns)

    Stats s;
};

} // namespace eole

#endif // EOLE_PIPELINE_STAGES_RENAME_HH

/**
 * @file
 * LE/VT pre-commit stage: Late Execution, validation and training
 * (§3.3, §4.1 of the paper).
 *
 * Only instantiated when it has work to do (value prediction enabled
 * or Late Execution configured); a pipeline without it pays no LE/VT
 * port accounting and no extra pre-commit cycle. The stage's per-cycle
 * work happens at the ROB head and is therefore driven synchronously
 * by the commit stage (the simulator folds the LE/VT stage's timing
 * into the preCommitCycles() retirement delay); its own tick is empty.
 *
 * Responsibilities, per retiring µ-op:
 *  - reserve the constrained LE/VT read ports (Fig 11): operand reads
 *    for Late Execution, result reads for validation and training;
 *  - late-execute predicted single-cycle ALU µ-ops and
 *    very-high-confidence branches that bypassed the OoO engine;
 *  - validate used predictions against the computed result (a mismatch
 *    squashes at commit) and train the value predictor.
 */

#ifndef EOLE_PIPELINE_STAGES_LEVT_HH
#define EOLE_PIPELINE_STAGES_LEVT_HH

#include "pipeline/dyn_inst.hh"
#include "pipeline/stages/stage.hh"
#include "sim/config.hh"

namespace eole {

class LevtStage : public Stage
{
  public:
    explicit LevtStage(const SimConfig &cfg);

    const char *name() const override { return "levt"; }
    void tick(PipelineState &st) override;
    Cycle nextActiveCycle(PipelineState &st) const override;
    void resetStats() override;
    void addStats(CoreStats &out) const override;

    /**
     * Reserve this µ-op's LE/VT read ports (all or nothing).
     * @return false when the commit group must stall this cycle.
     */
    bool reservePorts(PipelineState &st, const DynInst &di);

    /** Late-execute a µ-op at its ROB-head turn. */
    void lateExecute(PipelineState &st, const DynInstPtr &di);

    /**
     * Validate a used prediction against the computed result and fix
     * the PRF on a mismatch.
     * @return true when the value was mispredicted (squash at commit)
     */
    bool validate(PipelineState &st, const DynInstPtr &di);

    /** Train the value predictor with the committed result. */
    void train(PipelineState &st, const DynInstPtr &di);

  private:
    struct Stats
    {
        std::uint64_t lateExecutedAlu = 0;
        std::uint64_t lateExecutedBranches = 0;
        std::uint64_t vpCorrectUsed = 0;
        std::uint64_t vpMispredictSquashes = 0;
        std::uint64_t commitPortStalls = 0;
    };

    /** LE/VT read-port demand of @p di (§6.3). */
    int readNeeds(const PipelineState &st, const DynInst &di,
                  int *banks_out) const;

    bool vpEnabled;

    Stats s;
};

} // namespace eole

#endif // EOLE_PIPELINE_STAGES_LEVT_HH

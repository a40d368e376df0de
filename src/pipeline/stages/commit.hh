/**
 * @file
 * Commit stage: in-order retirement.
 *
 * Retires up to commitWidth µ-ops per cycle from the ROB head. When an
 * LE/VT stage is present (value prediction or Late Execution enabled),
 * commit drives its pre-commit work per retiring µ-op: port
 * reservation, Late Execution, validation of used predictions (a
 * mismatch squashes the pipeline after retiring the mispredicted µ-op)
 * and predictor training. Every committed µ-op is checked against the
 * functional oracle (self-verification). On a full squash, commit owns
 * the ROB/LSQ walk-back.
 */

#ifndef EOLE_PIPELINE_STAGES_COMMIT_HH
#define EOLE_PIPELINE_STAGES_COMMIT_HH

#include "pipeline/dyn_inst.hh"
#include "pipeline/stages/stage.hh"
#include "sim/config.hh"

namespace eole {

class LevtStage;

class CommitStage : public Stage
{
  public:
    /** @param levt the pre-commit LE/VT stage, or nullptr when neither
     *  value prediction nor Late Execution is configured */
    CommitStage(const SimConfig &cfg, LevtStage *levt);

    const char *name() const override { return "commit"; }
    void tick(PipelineState &st) override;
    Cycle nextActiveCycle(PipelineState &st) const override;
    void squash(PipelineState &st, SeqNum keep_seq,
                Cycle resume_fetch_at) override;
    void resetStats() override;
    void addStats(CoreStats &out) const override;

    void setLevt(LevtStage *levt_) { levt = levt_; }

  private:
    struct Stats
    {
        std::uint64_t condBranches = 0;
        std::uint64_t highConfBranches = 0;
        std::uint64_t vpEligible = 0;
        std::uint64_t vpPredictionsUsed = 0;
        std::uint64_t earlyExecuted = 0;
        std::uint64_t loads = 0;
        std::uint64_t stores = 0;
    };

    bool readyToRetire(const PipelineState &st, const DynInst &di) const;

    int commitWidth;
    /** Writeback->commit delay plus the LE/VT cycle when VP is on
     *  (§4.1). */
    Cycle retireDelay;
    LevtStage *levt;

    Stats s;
};

} // namespace eole

#endif // EOLE_PIPELINE_STAGES_COMMIT_HH

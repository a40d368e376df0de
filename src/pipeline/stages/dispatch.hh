/**
 * @file
 * Dispatch stage: ROB/IQ/LSQ allocation.
 *
 * Moves renamed µ-ops into the out-of-order window. Early-Execution
 * results and used value predictions are written to the PRF here,
 * consuming the constrained EE write ports (§6.3); early-executed and
 * late-executable µ-ops bypass the IQ entirely.
 */

#ifndef EOLE_PIPELINE_STAGES_DISPATCH_HH
#define EOLE_PIPELINE_STAGES_DISPATCH_HH

#include "pipeline/dyn_inst.hh"
#include "pipeline/stages/stage.hh"
#include "sim/config.hh"

namespace eole {

class DispatchStage : public Stage
{
  public:
    explicit DispatchStage(const SimConfig &cfg);

    const char *name() const override { return "dispatch"; }
    void tick(PipelineState &st) override;
    Cycle nextActiveCycle(PipelineState &st) const override;
    void skipIdle(const PipelineState &st, Cycle n) override;
    void resetStats() override;
    void addStats(CoreStats &out) const override;

  private:
    /** Structural hazards that keep the rename-out head out of the
     *  window until another stage frees an entry. */
    enum class Hazard { None, RobFull, LsqFull, IqFull };

    /** tick()'s stall checks for @p head, in tick()'s order. */
    Hazard hazardOf(const PipelineState &st, const DynInst &head) const;

    /** Count @p n cycles lost to @p h. */
    void countStall(Hazard h, std::uint64_t n);

    struct Stats
    {
        std::uint64_t dispatchPortStalls = 0;
        std::uint64_t robFullStalls = 0;
        std::uint64_t iqFullStalls = 0;
        std::uint64_t dispatchedToIQ = 0;
    };

    int dispatchWidth;
    int iqEntries;

    Stats s;
};

} // namespace eole

#endif // EOLE_PIPELINE_STAGES_DISPATCH_HH

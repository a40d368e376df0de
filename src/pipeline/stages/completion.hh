/**
 * @file
 * Completion/writeback stage.
 *
 * Drains the scheduled-completion calendar: marks µ-ops complete when
 * their latency elapses and resolves branch mispredictions discovered
 * at execute (late-executed branches resolve in the LE/VT stage
 * instead).
 */

#ifndef EOLE_PIPELINE_STAGES_COMPLETION_HH
#define EOLE_PIPELINE_STAGES_COMPLETION_HH

#include "pipeline/stages/stage.hh"

namespace eole {

class CompletionStage : public Stage
{
  public:
    const char *name() const override { return "completion"; }
    void tick(PipelineState &st) override;
    Cycle nextActiveCycle(PipelineState &st) const override;
};

} // namespace eole

#endif // EOLE_PIPELINE_STAGES_COMPLETION_HH

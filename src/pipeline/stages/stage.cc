#include "pipeline/stages/stage.hh"

#include "pipeline/pipeline_state.hh"

namespace eole {

Cycle
Stage::nextActiveCycle(PipelineState &st) const
{
    return st.now;
}

} // namespace eole

/**
 * @file
 * Fetch stage: instruction supply from the trace source.
 *
 * Models an 8-wide fetch with a 2-taken-branch limit, I-cache access
 * through the memory hierarchy, TAGE/BTB/RAS branch prediction and
 * value prediction at fetch (§4.2 of the paper). Fetched µ-ops enter
 * the latency/bandwidth-constrained front-end pipe toward rename.
 * Fetch stalls behind a branch known to be mispredicted (the simulator
 * is trace-driven and models no wrong path) and on BTB-miss redirect
 * bubbles.
 */

#ifndef EOLE_PIPELINE_STAGES_FETCH_HH
#define EOLE_PIPELINE_STAGES_FETCH_HH

#include "pipeline/stages/stage.hh"
#include "sim/config.hh"

namespace eole {

class FetchStage : public Stage
{
  public:
    explicit FetchStage(const SimConfig &cfg);

    const char *name() const override { return "fetch"; }
    void tick(PipelineState &st) override;
    Cycle nextActiveCycle(PipelineState &st) const override;
    void squash(PipelineState &st, SeqNum keep_seq,
                Cycle resume_fetch_at) override;
    void resetStats() override;
    void addStats(CoreStats &out) const override;

  private:
    struct Stats
    {
        std::uint64_t btbMissBubbles = 0;
    };

    int fetchWidth;
    int maxTakenBranchesPerFetch;
    int btbMissBubble;
    Cycle l1iHitLatency;

    Stats s;
};

} // namespace eole

#endif // EOLE_PIPELINE_STAGES_FETCH_HH

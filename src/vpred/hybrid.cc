#include "vpred/hybrid.hh"

namespace eole {

HybridVtage2DStride::HybridVtage2DStride(const VpConfig &config,
                                         std::uint64_t seed)
    : vt(config, seed ^ 0x1111), sp(config, true, seed ^ 0x2222)
{
}

std::vector<std::pair<int, int>>
HybridVtage2DStride::foldSpecs() const
{
    return vt.foldSpecs();
}

void
HybridVtage2DStride::bindHistory(const GlobalHistory &hist,
                                 std::size_t fold_base)
{
    vt.bindHistory(hist, fold_base);
}

VpLookup
HybridVtage2DStride::predict(Addr pc)
{
    VpLookup l;
    vt.predictInto(pc, l);
    sp.predictInto(pc, l);

    // Arbitration: confident tagged VTAGE hit > confident 2D-Stride >
    // any tagged VTAGE hit > any 2D-Stride hit > VTAGE base.
    const bool vt_tagged = l.provider >= 0;
    bool use_stride;
    if (vt_tagged && l.vtConfident)
        use_stride = false;
    else if (l.stridePredicted && l.strideConfident)
        use_stride = true;
    else
        use_stride = !vt_tagged && l.stridePredicted;

    l.predictionMade = true;  // VTAGE always predicts
    l.value = use_stride ? l.strideValue : l.vtValue;
    l.confident = use_stride ? l.strideConfident : l.vtConfident;
    return l;
}

void
HybridVtage2DStride::commit(Addr pc, RegVal actual, const VpLookup &lookup)
{
    // Both components always train (the paper's hybrid keeps both warm).
    vt.commit(pc, actual, lookup);
    sp.commit(pc, actual, lookup);
}

void
HybridVtage2DStride::squash(Addr pc, const VpLookup &lookup)
{
    // Only the stride component tracks in-flight instances.
    sp.squash(pc, lookup);
}

void
HybridVtage2DStride::warmUpdate(const TraceUop &uop)
{
    if (!uop.vpPredictable())
        return;
    VpLookup l;
    vt.predictInto(uop.pc, l);
    sp.predictInto(uop.pc, l);
    vt.commit(uop.pc, uop.result, l);
    sp.commit(uop.pc, uop.result, l);
}

void
HybridVtage2DStride::snapshotState(std::ostream &os) const
{
    SnapshotWriter w(os);
    w.tag("hybrid").u64(1);
    w.end();
    vt.snapshotState(os);
    sp.snapshotState(os);
}

void
HybridVtage2DStride::restoreState(std::istream &is)
{
    SnapshotReader r(is, name());
    r.line("hybrid");
    r.fatalIf(r.u64("version") != 1, "unsupported version");
    r.endLine();
    vt.restoreStateBody(r);
    sp.restoreStateBody(r);
}

} // namespace eole

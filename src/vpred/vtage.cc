#include "vpred/vtage.hh"

#include "common/logging.hh"

namespace eole {

Vtage::Vtage(const VpConfig &config, std::uint64_t seed)
    : cfg(config), numTagged(config.vtageNumTagged),
      baseMask((1u << config.vtageBaseLog2Entries) - 1),
      taggedMask((1u << config.vtageTaggedLog2Entries) - 1),
      fpc(config.fpcVector.empty() ? Fpc::paperVector() : config.fpcVector),
      rng(seed)
{
    panic_if(numTagged < 1 || numTagged > VpLookup::maxComps - 1,
             "unsupported VTAGE component count %d", numTagged);

    // Geometric histories doubling from minHist to maxHist.
    histLens.resize(numTagged);
    int len = cfg.vtageMinHist;
    for (int i = 0; i < numTagged; ++i) {
        histLens[i] = len;
        len = len < cfg.vtageMaxHist ? len * 2 : len + 1;
        tagMask[i] = static_cast<std::uint16_t>((1u << tagBitsOf(i)) - 1);
    }

    base.assign(baseMask + std::size_t(1), BaseEntry{});
    tagged.assign(numTagged * compEntries(), TaggedEntry{});
}

int
Vtage::tagBitsOf(int comp) const
{
    // Tags are 12 + rank bits, rank 1 for the shortest history.
    const int bits = cfg.vtageTagBits + comp + 1;
    return bits > 15 ? 15 : bits;
}

std::vector<std::pair<int, int>>
Vtage::foldSpecs() const
{
    std::vector<std::pair<int, int>> specs;
    for (int i = 0; i < numTagged; ++i) {
        specs.emplace_back(histLens[i], cfg.vtageTaggedLog2Entries);
        specs.emplace_back(histLens[i], tagBitsOf(i));
        specs.emplace_back(histLens[i], tagBitsOf(i) - 1);
    }
    return specs;
}

void
Vtage::bindHistory(const GlobalHistory &h, std::size_t fold_base)
{
    panic_if(fold_base + 3 * numTagged > h.numFolds(),
             "VTAGE needs %d history folds from %zu, history has %zu",
             3 * numTagged, fold_base, h.numFolds());
    hist = &h;
    foldBase = fold_base;
}

void
Vtage::predictInto(Addr pc, VpLookup &l) const
{
    const std::uint32_t p = static_cast<std::uint32_t>(pc >> 2);
    l.idx[0] = p & baseMask;

    for (int i = 0; i < numTagged; ++i) {
        const std::size_t f = foldBase + 3 * i;
        const std::uint32_t idx = (p ^ (p >> (1 + i)) ^ hist->folded(f))
            & taggedMask;
        l.idx[i + 1] = static_cast<std::uint32_t>(i * compEntries()) + idx;
        l.tag[i + 1] = static_cast<std::uint16_t>(
            (p ^ (p >> 5) ^ hist->folded(f + 1)
             ^ (hist->folded(f + 2) << 1))
            & tagMask[i]);
    }

    // Longest matching tagged component provides; next hit (or the
    // base) is the alternate.
    int provider = -1;
    int alt = -1;
    for (int i = numTagged - 1; i >= 0; --i) {
        const TaggedEntry &e = tagged[l.idx[i + 1]];
        if (e.valid && e.tag == l.tag[i + 1]) {
            if (provider >= 0) {
                alt = i;
                break;
            }
            provider = i;
        }
    }
    l.provider = static_cast<std::int8_t>(provider);
    l.altProvider = static_cast<std::int8_t>(alt);

    if (provider >= 0) {
        const TaggedEntry &e = tagged[l.idx[provider + 1]];
        l.vtValue = e.value;
        l.vtConfident = fpc.saturated(e.conf);
        l.altValue = alt >= 0 ? tagged[l.idx[alt + 1]].value
                              : base[l.idx[0]].value;
    } else {
        const BaseEntry &b = base[l.idx[0]];
        l.vtValue = b.value;
        l.vtConfident = fpc.saturated(b.conf);
        l.altValue = b.value;
    }
}

VpLookup
Vtage::predict(Addr pc)
{
    VpLookup l;
    predictInto(pc, l);
    l.predictionMade = true;
    l.value = l.vtValue;
    l.confident = l.vtConfident;
    return l;
}

void
Vtage::commit(Addr pc, RegVal actual, const VpLookup &lookup)
{
    (void)pc;
    const bool correct = lookup.vtValue == actual;

    if (lookup.provider >= 0) {
        TaggedEntry &e = tagged[lookup.idx[lookup.provider + 1]];
        fpc.update(e.conf, correct, rng);
        if (correct) {
            if (lookup.altValue != actual)
                e.u = 1;
        } else {
            // Replace the value only once confidence has drained.
            if (e.conf == 0)
                e.value = actual;
            e.u = 0;
        }
    } else {
        BaseEntry &b = base[lookup.idx[0]];
        fpc.update(b.conf, correct, rng);
        if (!correct && b.conf == 0)
            b.value = actual;
    }

    // ITTAGE-style allocation in a longer-history component on a
    // misprediction.
    if (!correct && lookup.provider < numTagged - 1) {
        const int start = lookup.provider + 1;
        bool any_free = false;
        for (int i = start; i < numTagged; ++i) {
            if (tagged[lookup.idx[i + 1]].u == 0) {
                any_free = true;
                break;
            }
        }
        if (!any_free) {
            for (int i = start; i < numTagged; ++i)
                tagged[lookup.idx[i + 1]].u = 0;
            return;
        }
        // Pick among free slots with geometric bias toward shorter
        // histories (probability 1/2 to stop at each candidate).
        int chosen = -1;
        for (int i = start; i < numTagged; ++i) {
            if (tagged[lookup.idx[i + 1]].u != 0)
                continue;
            chosen = i;
            if (rng.below(2) == 0)
                break;
        }
        TaggedEntry &e = tagged[lookup.idx[chosen + 1]];
        e.valid = true;
        e.tag = lookup.tag[chosen + 1];
        e.value = actual;
        e.conf = 0;
        e.u = 0;
    }
}

void
Vtage::snapshotState(std::ostream &os) const
{
    SnapshotWriter w(os);
    w.tag("vtage")
        .u64(1)
        .u64(base.size())
        .u64(static_cast<std::uint64_t>(numTagged))
        .u64(compEntries());
    w.end();
    w.tag("vtage.base");
    for (const BaseEntry &b : base)
        w.u64(b.value).u64(b.conf);
    w.end();
    for (int i = 0; i < numTagged; ++i) {
        w.tag("vtage.comp").u64(static_cast<std::uint64_t>(i));
        for (std::size_t j = 0; j < compEntries(); ++j) {
            const TaggedEntry &e = tagged[i * compEntries() + j];
            w.flag(e.valid).u64(e.tag).u64(e.value).u64(e.conf)
                .u64(e.u);
        }
        w.end();
    }
    w.tag("vtage.rng");
    for (int i = 0; i < Rng::stateWords; ++i)
        w.u64(rng.word(i));
    w.end();
}

void
Vtage::restoreStateBody(SnapshotReader &r)
{
    r.line("vtage");
    r.fatalIf(r.u64("version") != 1, "unsupported version");
    r.fatalIf(r.u64("baseEntries") != base.size(),
              "VTAGE base-table size mismatch");
    r.fatalIf(r.u64("numTagged") != static_cast<std::uint64_t>(numTagged),
              "VTAGE component-count mismatch");
    r.fatalIf(r.u64("taggedEntries") != compEntries(),
              "VTAGE tagged-table size mismatch");
    r.endLine();
    r.line("vtage.base");
    for (BaseEntry &b : base) {
        b.value = r.u64("value");
        b.conf = static_cast<std::uint8_t>(r.u64Max("conf", fpc.max()));
    }
    r.endLine();
    for (int i = 0; i < numTagged; ++i) {
        r.line("vtage.comp");
        r.fatalIf(r.u64("comp") != static_cast<std::uint64_t>(i),
                  "VTAGE components out of order");
        for (std::size_t j = 0; j < compEntries(); ++j) {
            TaggedEntry &e = tagged[i * compEntries() + j];
            e.valid = r.flag("valid");
            e.tag =
                static_cast<std::uint16_t>(r.u64Max("tag", tagMask[i]));
            e.value = r.u64("value");
            e.conf =
                static_cast<std::uint8_t>(r.u64Max("conf", fpc.max()));
            e.u = static_cast<std::uint8_t>(r.u64Max("u", 1));
        }
        r.endLine();
    }
    r.line("vtage.rng");
    for (int i = 0; i < Rng::stateWords; ++i)
        rng.setWord(i, r.u64("word"));
    r.endLine();
}

void
Vtage::restoreState(std::istream &is)
{
    SnapshotReader r(is, name());
    restoreStateBody(r);
}

} // namespace eole

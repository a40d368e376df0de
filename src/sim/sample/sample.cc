#include "sim/sample/sample.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "pipeline/core.hh"

namespace eole {

namespace {

/** Two-sided 97.5th-percentile Student-t critical values, df 1..30;
 *  beyond that the normal 1.96 is within ~1%. */
constexpr double tCrit[] = {
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
    2.228,  2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
    2.093,  2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
    2.048,  2.045, 2.042,
};

double
tCritical(std::size_t df)
{
    if (df == 0)
        return 0.0;
    if (df <= std::size(tCrit))
        return tCrit[df - 1];
    return 1.96;
}

} // namespace

std::uint64_t
intervalSeed(std::uint64_t cell_seed, std::uint64_t interval_index)
{
    // Reuse the jobSeed mixing discipline: pure function of the cell
    // seed and the interval index, stable across platforms/scheduling.
    return jobSeed(cell_seed, interval_index, "interval", "");
}

std::vector<std::uint64_t>
placeIntervals(std::uint64_t warmup, std::uint64_t measure,
               const SampleSpec &spec, std::uint64_t cell_seed)
{
    std::vector<std::uint64_t> starts;
    if (!spec.enabled() || measure == 0)
        return starts;

    const std::uint64_t w = spec.intervalUops;
    const std::uint64_t region_end = warmup + measure;
    // The region must hold n disjoint intervals: clamp n.
    std::uint64_t n = std::min(spec.intervals, measure / w);
    if (n == 0)
        n = 1;  // degenerate region: one (short) interval at the start
    const std::uint64_t period = measure / n;

    // Deterministic phase within one period (leaving room for W when
    // the period allows it), same for every interval: systematic
    // sampling with a seeded offset.
    const std::uint64_t slack = period > w ? period - w : 0;
    const std::uint64_t phase =
        slack ? intervalSeed(cell_seed, ~0ULL) % (slack + 1) : 0;

    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t start = warmup + i * period + phase;
        // The detailed-warmup prefix [start - D, start) must exist,
        // and intervals must stay disjoint after that clamp (a D
        // larger than the early systematic positions would otherwise
        // collapse them onto one point, biasing the CI narrow).
        start = std::max<std::uint64_t>(start, spec.detailUops);
        if (!starts.empty())
            start = std::max<std::uint64_t>(start, starts.back() + w);
        // Drop intervals pushed past the region by the clamps — the
        // contract is "fewer than N when the region cannot hold N
        // disjoint intervals", except the guaranteed first (short)
        // interval of a degenerate region.
        if (start + w > region_end && !starts.empty())
            break;
        starts.push_back(start);
    }
    return starts;
}

MeanCi
meanCi95(const std::vector<double> &xs)
{
    MeanCi out;
    if (xs.empty())
        return out;
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    out.mean = sum / static_cast<double>(xs.size());
    if (xs.size() < 2)
        return out;
    double ss = 0.0;
    for (double x : xs)
        ss += (x - out.mean) * (x - out.mean);
    out.stddev = std::sqrt(ss / static_cast<double>(xs.size() - 1));
    out.ci95 = tCritical(xs.size() - 1) * out.stddev
        / std::sqrt(static_cast<double>(xs.size()));
    return out;
}

std::vector<std::shared_ptr<const Checkpoint>>
warmOnceCheckpoints(const SimConfig &cfg, const Workload &workload,
                    const std::shared_ptr<const FrozenTrace> &trace,
                    const std::vector<std::uint64_t> &ckpt_indices)
{
    Workload wc = workload;
    wc.frozen = trace;
    wc.start.reset();
    Core core(cfg, wc);

    std::vector<std::shared_ptr<const Checkpoint>> out;
    out.reserve(ckpt_indices.size());
    const std::uint64_t len = trace->uops.size();
    std::uint64_t cursor = 0;
    for (std::uint64_t idx : ckpt_indices) {
        idx = std::min(idx, len);
        fatal_if(idx < cursor,
                 "warmOnceCheckpoints: indices must be non-decreasing "
                 "(%llu after %llu)",
                 (unsigned long long)idx, (unsigned long long)cursor);
        core.functionalWarm(*trace, cursor, idx);
        cursor = idx;
        auto ckpt = std::make_shared<Checkpoint>(
            captureAt(*trace, workload.name, idx));
        core.captureWarmState(*ckpt);
        out.push_back(std::move(ckpt));
    }
    return out;
}

} // namespace eole

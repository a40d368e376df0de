/**
 * @file
 * Unit tests for the common substrate: saturating counters, RNG,
 * bounded queues, delayed pipes, stats records and FPC confidence.
 */

#include <gtest/gtest.h>

#include "common/queues.hh"
#include "common/random.hh"
#include "common/sat_counter.hh"
#include "common/stats.hh"
#include "vpred/fpc.hh"

using namespace eole;

TEST(SatCounter, SaturatesHighAndLow)
{
    SatCounter c(2);
    EXPECT_TRUE(c.isZero());
    EXPECT_FALSE(c.decrement());
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(c.increment());
    EXPECT_TRUE(c.isSaturated());
    EXPECT_EQ(c.value(), 3u);
    EXPECT_FALSE(c.increment());
    EXPECT_EQ(c.value(), 3u);
}

TEST(SatCounter, ResetClamps)
{
    SatCounter c(3);
    c.reset(99);
    EXPECT_EQ(c.value(), 7u);
    c.reset(2);
    EXPECT_EQ(c.value(), 2u);
}

TEST(SignedSatCounter, RangeAndPrediction)
{
    SignedSatCounter c(3, 0);
    EXPECT_EQ(c.min(), -4);
    EXPECT_EQ(c.max(), 3);
    EXPECT_TRUE(c.predictTaken());
    EXPECT_TRUE(c.isWeak());
    for (int i = 0; i < 10; ++i)
        c.update(true);
    EXPECT_EQ(c.value(), 3);
    EXPECT_TRUE(c.isSaturated());
    for (int i = 0; i < 10; ++i)
        c.update(false);
    EXPECT_EQ(c.value(), -4);
    EXPECT_FALSE(c.predictTaken());
    EXPECT_TRUE(c.isSaturated());
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42), c(43);
    bool all_equal = true;
    bool any_diff_seed_diff = false;
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t va = a.next();
        all_equal = all_equal && va == b.next();
        any_diff_seed_diff = any_diff_seed_diff || va != c.next();
    }
    EXPECT_TRUE(all_equal);
    EXPECT_TRUE(any_diff_seed_diff);
}

TEST(Rng, BoundedAndRoughlyUniform)
{
    Rng r(7);
    int buckets[10] = {};
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const std::uint64_t v = r.below(10);
        ASSERT_LT(v, 10u);
        ++buckets[v];
    }
    for (int b = 0; b < 10; ++b) {
        EXPECT_NEAR(buckets[b], n / 10, n / 100);
    }
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng r(11);
    int hits = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(1.0 / 32);
    EXPECT_NEAR(hits / double(n), 1.0 / 32, 0.003);
}

TEST(CircularQueue, FifoOrderAndWraparound)
{
    CircularQueue<int> q(4);
    for (int round = 0; round < 5; ++round) {
        for (int i = 0; i < 4; ++i)
            q.pushBack(round * 10 + i);
        EXPECT_TRUE(q.full());
        for (int i = 0; i < 4; ++i)
            EXPECT_EQ(q.popFront(), round * 10 + i);
        EXPECT_TRUE(q.empty());
    }
}

TEST(CircularQueue, PopBackForSquash)
{
    CircularQueue<int> q(8);
    for (int i = 0; i < 6; ++i)
        q.pushBack(i);
    EXPECT_EQ(q.popBack(), 5);
    EXPECT_EQ(q.popBack(), 4);
    EXPECT_EQ(q.back(), 3);
    EXPECT_EQ(q.front(), 0);
    EXPECT_EQ(q.size(), 4u);
}

TEST(CircularQueue, IndexedAccessFromHead)
{
    CircularQueue<int> q(4);
    q.pushBack(1);
    q.pushBack(2);
    q.popFront();
    q.pushBack(3);
    q.pushBack(4);
    q.pushBack(5);  // wraps internally
    EXPECT_EQ(q.at(0), 2);
    EXPECT_EQ(q.at(3), 5);
}

TEST(DelayedPipe, EnforcesLatency)
{
    DelayedPipe<int> p(3, 2);
    p.push(10, 1);
    EXPECT_FALSE(p.canPop(10));
    EXPECT_FALSE(p.canPop(12));
    EXPECT_TRUE(p.canPop(13));
    EXPECT_EQ(p.pop(13), 1);
}

TEST(DelayedPipe, EnforcesBandwidth)
{
    DelayedPipe<int> p(1, 2);
    EXPECT_TRUE(p.canPush(5));
    p.push(5, 1);
    p.push(5, 2);
    EXPECT_FALSE(p.canPush(5));
    EXPECT_TRUE(p.canPush(6));
}

TEST(DelayedPipe, EnforcesCapacity)
{
    DelayedPipe<int> p(10, 0, 3);
    p.push(0, 1);
    p.push(0, 2);
    p.push(0, 3);
    EXPECT_FALSE(p.canPush(0));
    EXPECT_FALSE(p.canPush(1));
}

TEST(DelayedPipe, FrontReadyCycleAndCapacity)
{
    DelayedPipe<int> p(3, 0, 2);
    EXPECT_EQ(p.frontReadyCycle(), invalidCycle);
    EXPECT_FALSE(p.atCapacity());
    p.push(10, 1);
    EXPECT_EQ(p.frontReadyCycle(), 13u);
    p.push(11, 2);
    EXPECT_EQ(p.frontReadyCycle(), 13u);  // the oldest item decides
    EXPECT_TRUE(p.atCapacity());
    EXPECT_FALSE(p.canPush(12));
    EXPECT_EQ(p.pop(13), 1);
    EXPECT_EQ(p.frontReadyCycle(), 14u);
    EXPECT_FALSE(p.atCapacity());
    // Bandwidth alone never reports capacity.
    DelayedPipe<int> q(1, 1);
    q.push(0, 1);
    EXPECT_FALSE(q.canPush(0));
    EXPECT_FALSE(q.atCapacity());
}

TEST(DelayedPipe, RemoveIfDropsMatching)
{
    DelayedPipe<int> p(1, 0);
    for (int i = 0; i < 6; ++i)
        p.push(0, i);
    p.removeIf([](int v) { return v % 2 == 0; });
    EXPECT_EQ(p.size(), 3u);
    EXPECT_EQ(p.pop(100), 1);
    EXPECT_EQ(p.pop(100), 3);
    EXPECT_EQ(p.pop(100), 5);
}

namespace {

/** Drain wheel @p w up to @p now into a flat (cycle, value) list. */
template <typename Wheel>
std::vector<std::pair<Cycle, int>>
drained(Wheel &w, Cycle now)
{
    std::vector<std::pair<Cycle, int>> out;
    w.drainUpTo(now, [&](Cycle c, int v) { out.emplace_back(c, v); });
    return out;
}

} // namespace

TEST(TimingWheel, DrainsInCycleOrderInsertionOrderWithinCycle)
{
    TimingWheel<int, 8> w;
    w.schedule(5, 50);
    w.schedule(3, 30);
    w.schedule(5, 51);   // same cycle: must come out after 50
    w.schedule(4, 40);
    EXPECT_EQ(w.size(), 4u);

    const auto out = drained(w, 4);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], (std::pair<Cycle, int>{3, 30}));
    EXPECT_EQ(out[1], (std::pair<Cycle, int>{4, 40}));
    EXPECT_EQ(w.size(), 2u);
    EXPECT_EQ(w.drainCursor(), 5u);

    const auto rest = drained(w, 10);
    ASSERT_EQ(rest.size(), 2u);
    EXPECT_EQ(rest[0], (std::pair<Cycle, int>{5, 50}));
    EXPECT_EQ(rest[1], (std::pair<Cycle, int>{5, 51}));
    EXPECT_TRUE(w.empty());
}

TEST(TimingWheel, OverflowBeyondHorizonDrainsCorrectly)
{
    TimingWheel<int, 8> w;
    // Distance >= Horizon goes to the overflow map; it must still
    // interleave correctly with wheel-resident cycles.
    w.schedule(20, 200);  // overflow (20 - 0 >= 8)
    w.schedule(2, 21);    // wheel
    w.schedule(9, 90);    // overflow (9 - 0 >= 8)
    EXPECT_EQ(w.size(), 3u);

    const auto out = drained(w, 25);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0], (std::pair<Cycle, int>{2, 21}));
    EXPECT_EQ(out[1], (std::pair<Cycle, int>{9, 90}));
    EXPECT_EQ(out[2], (std::pair<Cycle, int>{20, 200}));
    EXPECT_TRUE(w.empty());
}

TEST(TimingWheel, SameCycleSplitBetweenOverflowAndWheelKeepsOrder)
{
    TimingWheel<int, 8> w;
    w.schedule(10, 100);  // overflow (distance 10 >= 8)
    // Drain nothing but slide the window so cycle 10 becomes
    // wheel-reachable, then schedule the same cycle again: the second
    // event must append to the overflow entry, not the wheel slot,
    // to keep within-cycle insertion order.
    w.drainUpTo(4, [](Cycle, int) { FAIL() << "nothing due yet"; });
    w.schedule(10, 101);
    const auto out = drained(w, 12);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], (std::pair<Cycle, int>{10, 100}));
    EXPECT_EQ(out[1], (std::pair<Cycle, int>{10, 101}));
}

TEST(TimingWheel, ForwardTimeJumpBoundedByHorizon)
{
    TimingWheel<int, 8> w;
    w.schedule(1, 10);
    w.schedule(100, 1000);  // overflow
    // A functional-warm style jump far past everything: one drain call
    // visits each wheel slot at most once and still delivers both.
    const auto out = drained(w, 1000000);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], (std::pair<Cycle, int>{1, 10}));
    EXPECT_EQ(out[1], (std::pair<Cycle, int>{100, 1000}));
    EXPECT_EQ(w.drainCursor(), 1000001u);
    // The wheel keeps working after the jump.
    w.schedule(1000002, 7);
    const auto later = drained(w, 1000002);
    ASSERT_EQ(later.size(), 1u);
    EXPECT_EQ(later[0], (std::pair<Cycle, int>{1000002, 7}));
}

TEST(TimingWheel, ClearDropsEverything)
{
    TimingWheel<int, 8> w;
    w.schedule(1, 1);
    w.schedule(30, 3);  // overflow too
    w.clear();
    EXPECT_TRUE(w.empty());
    EXPECT_TRUE(drained(w, 50).empty());
}

TEST(TimingWheel, SchedulingBehindTheCursorPanics)
{
    TimingWheel<int, 8> w;
    w.drainUpTo(10, [](Cycle, int) {});
    EXPECT_DEATH(w.schedule(5, 1), "behind drain cursor");
}

TEST(TimingWheel, NextEventCycleOfEmptyWheelIsInvalid)
{
    TimingWheel<int, 8> w;
    EXPECT_EQ(w.nextEventCycle(), invalidCycle);
    w.schedule(3, 1);
    drained(w, 3);
    EXPECT_EQ(w.nextEventCycle(), invalidCycle);
}

TEST(TimingWheel, NextEventCycleFindsTheNearestSlot)
{
    TimingWheel<int, 8> w;
    w.schedule(6, 60);
    w.schedule(2, 20);
    w.schedule(4, 40);
    EXPECT_EQ(w.nextEventCycle(), 2u);
    drained(w, 2);
    EXPECT_EQ(w.nextEventCycle(), 4u);
    drained(w, 5);
    EXPECT_EQ(w.nextEventCycle(), 6u);
    // Wrapping past the end of the slot array.
    w.schedule(9, 90);
    drained(w, 6);
    EXPECT_EQ(w.nextEventCycle(), 9u);
}

TEST(TimingWheel, NextEventCycleOfOverflowOnly)
{
    TimingWheel<int, 8> w;
    w.schedule(30, 300);  // overflow
    w.schedule(20, 200);  // overflow
    EXPECT_EQ(w.nextEventCycle(), 20u);
    w.schedule(5, 50);    // a nearer wheel entry wins
    EXPECT_EQ(w.nextEventCycle(), 5u);
    drained(w, 5);
    EXPECT_EQ(w.nextEventCycle(), 20u);
}

TEST(TimingWheel, NextEventCycleOfSameCycleSplit)
{
    // Cycle 10 is held by the overflow map while the window slides
    // over it; same-cycle schedules then append to that entry while
    // later cycles land in wheel slots.
    TimingWheel<int, 8> w;
    w.schedule(10, 100);  // overflow
    drained(w, 4);
    w.schedule(10, 101);
    w.schedule(11, 110);  // wheel
    EXPECT_EQ(w.nextEventCycle(), 10u);
    w.schedule(9, 90);    // wheel, before the overflow cycle
    EXPECT_EQ(w.nextEventCycle(), 9u);
    drained(w, 9);
    EXPECT_EQ(w.nextEventCycle(), 10u);
    EXPECT_EQ(drained(w, 10).size(), 2u);
    EXPECT_EQ(w.nextEventCycle(), 11u);
}

TEST(TimingWheel, NextEventCycleBehindAForwardJump)
{
    // A functional-warm clock jump leaves entries behind the caller's
    // `now` until the next drain: they are reported at their own
    // cycle (the caller clamps), then delivered late.
    TimingWheel<int, 8> w;
    drained(w, 3);
    w.schedule(5, 50);
    w.schedule(40, 400);  // overflow
    const Cycle now = 1000;
    EXPECT_EQ(w.nextEventCycle(), 5u);
    EXPECT_LT(w.nextEventCycle(), now);
    const auto out = drained(w, now);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(w.nextEventCycle(), invalidCycle);
    w.schedule(now + 3, 7);
    EXPECT_EQ(w.nextEventCycle(), now + 3);
}

TEST(StatRecord, GetAndPrefix)
{
    StatRecord a;
    a.add("x", 1.5);
    StatRecord b;
    b.add("hits", 10);
    a.addAll("l1.", b);
    EXPECT_DOUBLE_EQ(a.get("x"), 1.5);
    EXPECT_DOUBLE_EQ(a.get("l1.hits"), 10.0);
    EXPECT_FALSE(a.has("missing"));
    EXPECT_DOUBLE_EQ(a.get("missing"), 0.0);
}

TEST(Fpc, ResetsOnWrong)
{
    Fpc fpc({1.0, 1.0, 1.0});
    Rng rng(3);
    std::uint8_t c = 0;
    fpc.update(c, true, rng);
    fpc.update(c, true, rng);
    EXPECT_EQ(c, 2);
    fpc.update(c, false, rng);
    EXPECT_EQ(c, 0);
}

TEST(Fpc, DeterministicVectorSaturates)
{
    Fpc fpc({1.0, 1.0, 1.0});
    Rng rng(3);
    std::uint8_t c = 0;
    for (int i = 0; i < 3; ++i)
        fpc.update(c, true, rng);
    EXPECT_TRUE(fpc.saturated(c));
    // Saturated counters stay saturated on further correct outcomes.
    fpc.update(c, true, rng);
    EXPECT_EQ(c, fpc.max());
}

TEST(Fpc, PaperVectorNeedsManyCorrectPredictions)
{
    // With v = {1, 4x 1/32, 2x 1/64}, the expected number of correct
    // predictions to saturate is 1 + 4*32 + 2*64 = 257. Check the
    // empirical mean over many trials is in that ballpark.
    Fpc fpc;  // paper vector
    Rng rng(17);
    double total = 0;
    const int trials = 300;
    for (int t = 0; t < trials; ++t) {
        std::uint8_t c = 0;
        int steps = 0;
        while (!fpc.saturated(c)) {
            fpc.update(c, true, rng);
            ++steps;
        }
        total += steps;
    }
    EXPECT_NEAR(total / trials, 257.0, 30.0);
}

TEST(Fpc, RejectsBadVectors)
{
    EXPECT_DEATH({ Fpc bad(std::vector<double>{}); }, "");
    EXPECT_DEATH({ Fpc bad(std::vector<double>{0.0}); }, "");
    EXPECT_DEATH({ Fpc bad(std::vector<double>{2.0}); }, "");
}

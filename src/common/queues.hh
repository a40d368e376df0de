/**
 * @file
 * Fixed-capacity container primitives used to model pipeline structures:
 * a circular FIFO buffer (ROB, LSQ, prediction queue), a latency +
 * bandwidth constrained pipe (inter-stage communication), and a timing
 * wheel for scheduling events a bounded number of cycles into the
 * future (instruction completion).
 */

#ifndef EOLE_COMMON_QUEUES_HH
#define EOLE_COMMON_QUEUES_HH

#include <cstddef>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace eole {

/**
 * Bounded circular FIFO. Supports indexed access from the head, which
 * pipeline structures need for age-ordered scans (e.g. LSQ searches).
 */
template <typename T>
class CircularQueue
{
  public:
    explicit CircularQueue(size_t capacity)
        : buf(capacity), cap(capacity)
    {
        panic_if(capacity == 0, "CircularQueue capacity must be > 0");
    }

    bool empty() const { return count == 0; }
    bool full() const { return count == cap; }
    size_t size() const { return count; }
    size_t capacity() const { return cap; }
    size_t freeSlots() const { return cap - count; }

    /** Append at the tail. The queue must not be full. */
    void
    pushBack(T value)
    {
        panic_if(full(), "pushBack on full CircularQueue");
        buf[wrap(head + count)] = std::move(value);
        ++count;
    }

    /** Remove from the head. The queue must not be empty. */
    T
    popFront()
    {
        panic_if(empty(), "popFront on empty CircularQueue");
        T value = std::move(buf[head]);
        head = wrap(head + 1);
        --count;
        return value;
    }

    /** Remove from the tail (used when squashing young entries). */
    T
    popBack()
    {
        panic_if(empty(), "popBack on empty CircularQueue");
        --count;
        return std::move(buf[wrap(head + count)]);
    }

    /** Element at distance @p idx from the head (0 = oldest). */
    T &
    at(size_t idx)
    {
        panic_if(idx >= count, "CircularQueue index %zu out of range %zu",
                 idx, count);
        return buf[wrap(head + idx)];
    }

    const T &
    at(size_t idx) const
    {
        panic_if(idx >= count, "CircularQueue index %zu out of range %zu",
                 idx, count);
        return buf[wrap(head + idx)];
    }

    T &front() { return at(0); }
    const T &front() const { return at(0); }
    T &back() { return at(count - 1); }
    const T &back() const { return at(count - 1); }

    void
    clear()
    {
        head = 0;
        count = 0;
    }

  private:
    /** Ring-wrap a position. Every caller's offset is < 2*cap (idx and
     *  count never exceed cap), so one conditional subtract replaces
     *  the integer division a `% cap` would cost on these hot paths
     *  (capacities are runtime values, not powers of two). */
    size_t
    wrap(size_t pos) const
    {
        return pos >= cap ? pos - cap : pos;
    }

    std::vector<T> buf;
    size_t cap;
    size_t head = 0;
    size_t count = 0;
};

/**
 * A latency- and bandwidth-constrained pipe between two pipeline stages.
 *
 * The producer pushes up to `bandwidth` items per cycle; items become
 * visible to the consumer `latency` cycles later. This models in-order
 * front-end stage separation (e.g. the 15-cycle front end) without
 * simulating each intermediate stage individually.
 */
template <typename T>
class DelayedPipe
{
  public:
    /**
     * @param latency_ cycles between push and earliest pop (>= 1)
     * @param bandwidth_ max pushes per cycle (0 = unlimited)
     * @param capacity_ max in-flight items (0 = unlimited)
     */
    DelayedPipe(Cycle latency_, size_t bandwidth_, size_t capacity_ = 0)
        : latency(latency_), bandwidth(bandwidth_), capacity(capacity_)
    {
        panic_if(latency == 0, "DelayedPipe latency must be >= 1");
    }

    /** Can the producer push another item during cycle @p now? */
    bool
    canPush(Cycle now) const
    {
        if (atCapacity())
            return false;
        if (bandwidth == 0)
            return true;
        return pushedThisCycle(now) < bandwidth;
    }

    void
    push(Cycle now, T value)
    {
        panic_if(!canPush(now), "push on full/saturated DelayedPipe");
        if (now != lastPushCycle) {
            lastPushCycle = now;
            pushedCount = 0;
        }
        ++pushedCount;
        items.emplace_back(now + latency, std::move(value));
    }

    /** Is an item ready for the consumer at cycle @p now? */
    bool
    canPop(Cycle now) const
    {
        return !items.empty() && items.front().first <= now;
    }

    T
    pop(Cycle now)
    {
        panic_if(!canPop(now), "pop on not-ready DelayedPipe");
        T value = std::move(items.front().second);
        items.pop_front();
        return value;
    }

    /** Peek the oldest in-flight item regardless of readiness. */
    const T &front() const { return items.front().second; }

    /** Cycle from which the oldest in-flight item can be popped;
     *  invalidCycle when the pipe is empty. */
    Cycle
    frontReadyCycle() const
    {
        return items.empty() ? invalidCycle : items.front().first;
    }

    /** Is every in-flight slot taken? Only a pop makes room again;
     *  otherwise canPush() fails only on this cycle's bandwidth. */
    bool
    atCapacity() const
    {
        return capacity != 0 && items.size() >= capacity;
    }

    bool empty() const { return items.empty(); }
    size_t size() const { return items.size(); }

    /** Drop every in-flight item (pipeline squash). */
    void clear() { items.clear(); }

    /**
     * Drop in-flight items for which @p pred returns true (partial squash
     * of items younger than a given sequence number).
     */
    template <typename Pred>
    void
    removeIf(Pred pred)
    {
        std::erase_if(items, [&](const auto &p) { return pred(p.second); });
    }

  private:
    size_t
    pushedThisCycle(Cycle now) const
    {
        return now == lastPushCycle ? pushedCount : 0;
    }

    Cycle latency;
    size_t bandwidth;
    size_t capacity;
    std::deque<std::pair<Cycle, T>> items;
    Cycle lastPushCycle = invalidCycle;
    size_t pushedCount = 0;
};

/**
 * A timing wheel: schedule items for a future cycle, drain them in
 * cycle order. Replaces a `std::map<Cycle, std::vector<T>>` keyed by
 * ready-cycle on the completion path — same drain order (ascending
 * cycle; insertion order within a cycle), but scheduling within the
 * `Horizon`-cycle window is an array index plus a push into a
 * slot vector that keeps its capacity across reuse, instead of a
 * red-black-tree insert (node allocation + rebalancing) per event and
 * a node extraction per drained cycle.
 *
 * Items further out than `Horizon` cycles overflow into a std::map —
 * correct for any distance, just not fast. Pipeline latencies are far
 * below the horizon (longest FU ~25 cycles, a DRAM round trip ~110),
 * so the overflow path costs one `empty()` branch in practice. Should
 * an overflow entry's cycle acquire later same-cycle schedules after
 * the window has slid over it, those are appended to the overflow
 * entry too, preserving within-cycle insertion order (overflow drains
 * before the wheel slot for the same cycle).
 *
 * drainUpTo() catches up after forward time jumps (a functional-warm
 * pass advancing the clock by a whole interval) with work bounded by
 * `Horizon` slots plus the ready overflow entries, not by the size of
 * the jump. Scheduling into already-drained time panics: the map this
 * replaces would have drained such an entry on the next tick, so
 * silently parking it for a full wheel revolution would be a
 * behavioral change — fail fast instead.
 */
template <typename T, std::size_t Horizon = 1024>
class TimingWheel
{
    static_assert((Horizon & (Horizon - 1)) == 0,
                  "TimingWheel horizon must be a power of two");

  public:
    /** Schedule @p value to drain at cycle @p when (>= drain cursor). */
    void
    schedule(Cycle when, T value)
    {
        panic_if(when < cursor,
                 "TimingWheel schedule at %llu behind drain cursor %llu",
                 (unsigned long long)when, (unsigned long long)cursor);
        if (when >= cursor + Horizon
            || (!overflow.empty() && overflow.count(when))) {
            overflow[when].push_back(std::move(value));
        } else {
            slots[when & (Horizon - 1)].push_back(std::move(value));
        }
        ++count;
    }

    /**
     * Drain every item scheduled at cycles <= @p now, in ascending
     * cycle order (insertion order within a cycle), invoking
     * `fn(cycle, item)` for each. @p fn must not schedule.
     */
    template <typename Fn>
    void
    drainUpTo(Cycle now, Fn &&fn)
    {
        if (cursor > now)
            return;
        if (count == 0) {
            // Nothing scheduled anywhere: just advance the cursor.
            cursor = now + 1;
            return;
        }
        // Wheel slots can only hold cycles in [cursor, cursor+Horizon),
        // so a catch-up longer than the horizon still visits each slot
        // at most once.
        const Cycle last =
            now - cursor >= Horizon ? cursor + Horizon - 1 : now;
        for (Cycle c = cursor; c <= last; ++c) {
            std::vector<T> &slot = slots[c & (Horizon - 1)];
            cursor = c + 1;
            if (slot.empty())
                continue;
            drainOverflowUpTo(c, fn);  // keys <= c precede slot c
            for (T &v : slot)
                fn(c, v);
            count -= slot.size();
            slot.clear();  // keeps capacity for the slot's next lap
        }
        cursor = now + 1;
        drainOverflowUpTo(now, fn);
    }

    bool empty() const { return count == 0; }
    size_t size() const { return count; }

    /** Cycles < the cursor have been drained. */
    Cycle drainCursor() const { return cursor; }

    /**
     * The earliest cycle holding a scheduled item; invalidCycle when
     * nothing is scheduled. After a forward time jump this may lie
     * behind the caller's clock (the next drainUpTo delivers such
     * items late), so callers clamp to their own `now`. Walks the
     * wheel slots from the cursor to the first occupied one, stopping
     * at the earliest overflow cycle (which also wins a same-cycle
     * split, as it drains first).
     */
    Cycle
    nextEventCycle() const
    {
        if (count == 0)
            return invalidCycle;
        const Cycle spill =
            overflow.empty() ? invalidCycle : overflow.begin()->first;
        // Wheel slots only hold cycles in [cursor, cursor + Horizon).
        const Cycle end =
            spill - cursor < Horizon ? spill : cursor + Horizon;
        for (Cycle c = cursor; c < end; ++c) {
            if (!slots[c & (Horizon - 1)].empty())
                return c;
        }
        return spill;
    }

    /** Drop every scheduled item without invoking anything. */
    void
    clear()
    {
        for (std::vector<T> &slot : slots)
            slot.clear();
        overflow.clear();
        count = 0;
    }

  private:
    template <typename Fn>
    void
    drainOverflowUpTo(Cycle c, Fn &&fn)
    {
        while (!overflow.empty() && overflow.begin()->first <= c) {
            auto node = overflow.extract(overflow.begin());
            for (T &v : node.mapped())
                fn(node.key(), v);
            count -= node.mapped().size();
        }
    }

    std::vector<T> slots[Horizon];
    std::map<Cycle, std::vector<T>> overflow;
    Cycle cursor = 0;
    size_t count = 0;
};

} // namespace eole

#endif // EOLE_COMMON_QUEUES_HH

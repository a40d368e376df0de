/**
 * @file
 * Content-addressed result store: sweep-cell artifacts and warm-state
 * checkpoints keyed by the SHA-256 of a canonical key document.
 *
 * The EagleTree "experiments as managed result folders" idiom
 * (SNIPPETS.md §2–3), done deterministically: a store directory is a
 * cache of finished work addressed purely by its inputs. A cell's key
 * document spells out everything its measurement depends on — the
 * complete canonical config map (sim/params.hh), the workload name,
 * the resolved cell seed, the resolved run lengths, the sample spec
 * and (for checkpoints) the µ-op index — so equal keys mean "the same
 * experiment, byte for byte", any single field change means a new key,
 * and `eole run --store DIR` can skip a cell the moment its key
 * resolves. Re-running an unchanged grid computes zero cells; that is
 * the serve-sweep-queries-as-cache-hits direction the ROADMAP names.
 *
 * Layout (all canonical text, no timestamps or host state):
 *
 *   DIR/index                eole-store-v1 header + one line per
 *                            object: hash, kind, bytes, logical LRU
 *                            tick, workload, config
 *   DIR/objects/<hash>       the key document, a "payload <bytes>"
 *                            separator, then the raw payload (cell
 *                            stats text or a serialized checkpoint)
 *
 * Recency is a persisted logical tick (monotone counter), not wall
 * time, so eviction order is deterministic and testable: `gc` drops
 * lowest-tick objects first, and every hit bumps its object's tick.
 * One process owns a store directory at a time (the run engine calls
 * the store only from its serial pre/post passes; there is no
 * cross-process locking).
 */

#ifndef EOLE_SIM_STORE_HH
#define EOLE_SIM_STORE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "sim/plan.hh"

namespace eole {

/** Everything a stored object's identity derives from. */
struct StoreKey
{
    std::string kind;      //!< "cell" (reduced stats), "ckpt", "trace"
    std::string config;    //!< config name (axis-derived names legal)
    /** Complete canonical config map (configKeyValues) — the config's
     *  identity is its parameters, not its name. */
    std::vector<std::pair<std::string, std::string>> params;
    std::string workload;
    std::uint64_t seed = 0;     //!< resolved cell seed (jobSeed)
    std::uint64_t warmup = 0;   //!< resolved warmup µ-ops
    std::uint64_t measure = 0;  //!< resolved measured µ-ops (per config)
    SampleSpec sample;          //!< disabled for full runs
    std::uint64_t index = 0;    //!< ckpt µ-op index (0 for cells)
    /** Content address for payload-identified objects ("trace": the
     *  SHA-256 of the file bytes). Empty for cell/ckpt keys, and only
     *  emitted into the key document when set, so every pre-existing
     *  store hash is unchanged. */
    std::string content;
};

/** The canonical key document (byte-stable; this text is hashed). */
std::string storeKeyText(const StoreKey &key);

/** SHA-256 of storeKeyText as 64 lowercase hex characters — the
 *  object's address. */
std::string storeKeyHash(const StoreKey &key);

/** Canonical payload text for a cell's reduced StatRecord
 *  ("eole-store-cell-v1"); %.17g values round-trip exactly, so a
 *  cache-hit artifact is byte-identical to a computed one. */
std::string cellPayloadText(const StatRecord &stats);

/** Parse cellPayloadText; false + line-numbered diagnostic in @p err
 *  on a corrupted payload. */
bool tryParseCellPayload(const std::string &text, StatRecord *out,
                         std::string *err);

class Store
{
  public:
    /** Open (creating if missing) the store at @p dir. Fatal on an
     *  unreadable or corrupted index — a store is a managed cache the
     *  operator can always delete and re-fill. */
    explicit Store(const std::string &dir);

    /** Persists the index (also called on every mutation's behalf by
     *  the destructor). */
    ~Store();

    /** Fetch a payload by hash; a hit bumps the object's LRU tick. An
     *  index entry whose object file went missing reads as a miss. */
    bool get(const std::string &hash, std::string *payload);

    bool contains(const std::string &hash) const;

    /** Insert (or overwrite) the object for @p key. */
    void put(const StoreKey &key, const std::string &payload);

    struct Entry
    {
        std::string hash;
        std::string kind;
        std::uint64_t bytes = 0;  //!< payload bytes
        std::uint64_t tick = 0;   //!< logical LRU tick (higher = newer)
        std::string workload;
        std::string config;
    };

    /** Index order (insertion order, stable across open/close). */
    const std::vector<Entry> &entries() const { return index; }

    std::uint64_t totalPayloadBytes() const;

    /**
     * Evict lowest-tick objects until at most @p max_objects remain
     * and the payload total is at most @p max_bytes (~0ULL = no bound
     * on that axis). Deleted entries are appended to @p evicted when
     * non-null. Returns the number evicted.
     */
    std::size_t gc(std::uint64_t max_objects, std::uint64_t max_bytes,
                   std::vector<Entry> *evicted = nullptr);

    /** Rewrite DIR/index now. */
    void flush();

    const std::string &directory() const { return dir; }

  private:
    std::string objectPath(const std::string &hash) const;

    std::string dir;
    std::vector<Entry> index;
    std::uint64_t nextTick = 1;
    bool dirty = false;
};

} // namespace eole

#endif // EOLE_SIM_STORE_HH

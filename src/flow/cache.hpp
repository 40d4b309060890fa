// CompileCache: keyed, thread-safe sharing of CompiledUnits under a
// resident-byte bound.
//
// The sweep engine's grid repeats each (kernel, machine, geometry, env)
// point once per pipeline configuration; the cache collapses those to one
// compile each. The map is striped over kShardCount mutexes keyed by the
// spec's FNV-1a hash, so parallel sweep workers resolving different units
// no longer convoy on a single lock; within a shard, resolution happens
// under the lock, so a unit is still resolved exactly once no matter how
// many workers race for it. The miss counter counts in-memory misses; with
// an attached UnitStore a miss is first served from disk (store_hits), so
// the number of compiles actually performed is the separate `compiles`
// counter (== misses when no store is attached), which SweepReport exposes
// (and tests assert).
//
// Each shard keeps its units in least-recently-used order and holds at
// most kMaxResidentBytes / kShardCount of CompiledUnit::resident_bytes().
// Past that it drops its least recently used units. A dropped unit stays
// alive for whoever still holds it; the next lookup of its spec resolves
// it again (store load or compile), so the counters can only rise past the
// bound, which holds every unit of the checked-in scenarios/ set.
#ifndef ZOLCSIM_FLOW_CACHE_HPP
#define ZOLCSIM_FLOW_CACHE_HPP

#include <array>
#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "flow/compiled_unit.hpp"
#include "flow/unit_store.hpp"

namespace zolcsim::flow {

class CompileCache {
 public:
  /// Mutex stripes. A power of two well above typical sweep thread counts;
  /// the per-shard cost is one mutex, one small map and one list.
  static constexpr std::size_t kShardCount = 16;
  /// The resident-byte bound over all shards: the smallest power of two
  /// that holds the whole scenarios/ unit set with no eviction.
  static constexpr std::size_t kMaxResidentBytes = std::size_t{4} << 20;

  struct Stats {
    std::size_t hits = 0;        ///< served from memory
    std::size_t misses = 0;      ///< not in memory (store or compile)
    std::size_t store_hits = 0;  ///< misses served by the attached store
    std::size_t compiles = 0;    ///< compiles performed (misses - store_hits)
    std::size_t evictions = 0;   ///< units dropped to stay within the bound
    /// Bytes charged to the units held now.
    std::size_t resident_bytes = 0;
  };

  /// Attaches an on-disk UnitStore (non-owning; must outlive the cache):
  /// misses try store.load() before compiling, and fresh compiles are
  /// written back with store.save(). Store failures never fail a lookup --
  /// a bad artifact is recompiled and overwritten. Attach before sharing
  /// the cache across threads.
  void attach_store(UnitStore* store) noexcept { store_ = store; }
  [[nodiscard]] UnitStore* store() const noexcept { return store_; }

  /// Returns the unit for `spec`, resolving it when it is not resident
  /// (store load or compile). A failed compile is not cached (every caller
  /// for that spec gets the error).
  ///
  /// A unit is charged its resident_bytes() when it is inserted and again
  /// whenever it is hit, so its prepared image, built after insertion,
  /// counts from then on. The shard's most recently used unit is also
  /// re-charged at the shard's next lookup: that is the unit a caller most
  /// likely built an image for since, even when it is never asked for
  /// again.
  [[nodiscard]] Result<std::shared_ptr<const CompiledUnit>> get_or_compile(
      const CompileSpec& spec);

  /// Counters summed over all shards. With concurrent callers in flight
  /// the sum is a snapshot; quiesced, it is exact.
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t size() const;
  void clear();

  /// The shard a key lands in (its FNV-1a hash modulo kShardCount).
  [[nodiscard]] static std::size_t shard_index(std::string_view key) noexcept;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const CompiledUnit> unit;
    std::size_t charge = 0;  ///< unit->resident_bytes() when last charged
  };

  struct Shard {
    mutable std::mutex mutex;
    std::list<Entry> lru;  ///< most recently used first
    /// Views of the entries' own keys; list nodes never move.
    std::unordered_map<std::string_view, std::list<Entry>::iterator> index;
    Stats stats;
  };

  /// Inserts a freshly resolved unit as the shard's most recently used.
  static void insert(Shard& shard, const std::string& key,
                     std::shared_ptr<const CompiledUnit> unit);
  static void recharge(Shard& shard, Entry& entry) noexcept;
  /// Drops least recently used units until the shard fits its budget,
  /// always keeping the most recently used one.
  static void evict_past_budget(Shard& shard);

  std::array<Shard, kShardCount> shards_;
  UnitStore* store_ = nullptr;  ///< non-owning; set once before use
};

}  // namespace zolcsim::flow

#endif  // ZOLCSIM_FLOW_CACHE_HPP

#include "flow/cache.hpp"

#include <utility>

#include "common/strings.hpp"

namespace zolcsim::flow {

namespace {

constexpr std::size_t kShardBudget =
    CompileCache::kMaxResidentBytes / CompileCache::kShardCount;

}  // namespace

std::size_t CompileCache::shard_index(std::string_view key) noexcept {
  return fnv1a64(key) % kShardCount;
}

Result<std::shared_ptr<const CompiledUnit>> CompileCache::get_or_compile(
    const CompileSpec& spec) {
  const std::string key = spec.key();
  Shard& shard = shards_[shard_index(key)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  // The unit handed out last may have built its prepared image since.
  if (!shard.lru.empty()) recharge(shard, shard.lru.front());
  if (const auto it = shard.index.find(key); it != shard.index.end()) {
    ++shard.stats.hits;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    recharge(shard, shard.lru.front());
    evict_past_budget(shard);
    return shard.lru.front().unit;
  }
  // Resolving under the shard lock serializes same-shard misses, but a
  // resolution is cheap next to the simulations that consume it, and this
  // guarantees the exactly-once property the compile counter advertises.
  // Failed resolutions count nowhere: misses only tallies units resolved.
  if (store_ != nullptr) {
    // Any load failure (miss, stale tag, corrupt artifact) falls through
    // to a compile; the save below then replaces the bad artifact.
    if (auto loaded = store_->load(spec); loaded.ok() && loaded.value()) {
      ++shard.stats.misses;
      ++shard.stats.store_hits;
      insert(shard, key, loaded.value());
      return std::move(loaded).value();
    }
  }
  auto compiled = CompiledUnit::compile(spec);
  if (!compiled.ok()) return std::move(compiled).error();
  ++shard.stats.misses;
  ++shard.stats.compiles;
  auto unit =
      std::make_shared<const CompiledUnit>(std::move(compiled).value());
  insert(shard, key, unit);
  if (store_ != nullptr) {
    // Best-effort write-back: a full disk or read-only store directory
    // must not fail the sweep that compiled the unit.
    (void)store_->save(*unit);
  }
  return unit;
}

void CompileCache::insert(Shard& shard, const std::string& key,
                          std::shared_ptr<const CompiledUnit> unit) {
  shard.lru.push_front(Entry{key, std::move(unit), 0});
  shard.index.emplace(shard.lru.front().key, shard.lru.begin());
  recharge(shard, shard.lru.front());
  evict_past_budget(shard);
}

void CompileCache::recharge(Shard& shard, Entry& entry) noexcept {
  const std::size_t charge = entry.unit->resident_bytes();
  shard.stats.resident_bytes += charge - entry.charge;
  entry.charge = charge;
}

void CompileCache::evict_past_budget(Shard& shard) {
  while (shard.stats.resident_bytes > kShardBudget && shard.lru.size() > 1) {
    const Entry& victim = shard.lru.back();
    shard.stats.resident_bytes -= victim.charge;
    ++shard.stats.evictions;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
  }
}

CompileCache::Stats CompileCache::stats() const {
  Stats total;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total.hits += shard.stats.hits;
    total.misses += shard.stats.misses;
    total.store_hits += shard.stats.store_hits;
    total.compiles += shard.stats.compiles;
    total.evictions += shard.stats.evictions;
    total.resident_bytes += shard.stats.resident_bytes;
  }
  return total;
}

std::size_t CompileCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.lru.size();
  }
  return total;
}

void CompileCache::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.index.clear();
    shard.lru.clear();
    shard.stats = {};
  }
}

}  // namespace zolcsim::flow

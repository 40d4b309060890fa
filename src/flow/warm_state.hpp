// WarmState: the process-wide warm half of "zolcsim as a service" -- one
// CompileCache optionally fronted by an on-disk UnitStore, bundled so the
// store outlives the cache that points at it. Both long-running fronts (the
// CLI across subcommand invocations within a process, and the serve daemon
// across client requests) hold exactly one of these; every request after
// the first then resolves units from memory (cache hits), then disk (store
// hits), and compiles only what neither holds (the cache keeps a bounded
// number of bytes; see flow/cache.hpp).
#ifndef ZOLCSIM_FLOW_WARM_STATE_HPP
#define ZOLCSIM_FLOW_WARM_STATE_HPP

#include <optional>
#include <string>

#include "flow/cache.hpp"
#include "flow/unit_store.hpp"

namespace zolcsim::flow {

class WarmState {
 public:
  /// An empty `store_dir` runs memory-only; otherwise the cache's misses
  /// are served from (and fresh compiles written back to) the store.
  explicit WarmState(const std::string& store_dir = "");

  [[nodiscard]] CompileCache& cache() noexcept { return cache_; }
  [[nodiscard]] const CompileCache& cache() const noexcept { return cache_; }
  /// nullptr when running memory-only.
  [[nodiscard]] UnitStore* store() noexcept {
    return store_ ? &*store_ : nullptr;
  }

 private:
  // Declaration order is the lifetime contract: the store must be
  // constructed before -- and destroyed after -- the cache attached to it.
  std::optional<UnitStore> store_;
  CompileCache cache_;
};

}  // namespace zolcsim::flow

#endif  // ZOLCSIM_FLOW_WARM_STATE_HPP

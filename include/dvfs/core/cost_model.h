/// \file cost_model.h
/// \brief Monetized cost function and the per-position cost table
///        (Sections II-C and III-B).
///
/// The cost of a schedule combines an energy cost Re (money per joule,
/// Eq. 3) and a temporal cost Rt (money per second of user waiting,
/// Eq. 4). The pivotal observation (Lemma 1) is that the per-cycle cost
/// coefficient of the task at *backward* position k,
///
///     C_B(k, p) = Re * E(p) + k * Rt * T(p)              (Eq. 20)
///
/// is independent of which task sits there, so the optimal rate for every
/// position can be precomputed from (P, E, T, Re, Rt) alone. CostTable
/// does that precomputation via the dominating-position-range construction
/// (Algorithm 1) and answers best-rate/best-cost queries in O(log |P-hat|)
/// or O(1) for cached small positions.
#pragma once

#include <cmath>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "dvfs/common.h"
#include "dvfs/core/energy_model.h"
#include "dvfs/ds/lower_envelope.h"

namespace dvfs::core {

/// Cost weights. The paper's batch experiments use Re = 0.1 cent/J and
/// Rt = 0.4 cent/s; the online experiments use Re = 0.4, Rt = 0.1.
struct CostParams {
  Money re = 0.1;  ///< money per joule of energy consumed.
  Money rt = 0.4;  ///< money per second a user waits (turnaround).

  [[nodiscard]] bool valid() const {
    return re > 0.0 && rt > 0.0 && std::isfinite(re) && std::isfinite(rt);
  }

  friend bool operator==(const CostParams&, const CostParams&) = default;
};

/// One dominating position range: rate `rate_idx` is optimal for every
/// backward position k in `range` (Algorithm 1 output).
struct DominatingRange {
  std::size_t rate_idx = 0;
  ds::IntegerRange range;
};

namespace detail {
/// Immutable Algorithm 1 output, shared (via shared_ptr) between every
/// CostTable built on the same rate lines: the envelope is memoized per
/// rate configuration instead of recomputed per table, and copying a
/// CostTable no longer copies the small-k lookup table.
struct CostTablePrecomputed {
  std::vector<ds::Line> key;  ///< the inducing lines (cache identity)
  std::vector<DominatingRange> ranges;
  std::vector<std::size_t> active_rates;
  std::vector<std::size_t> small_k_cache;  ///< best rate for k = 1..size
};
}  // namespace detail

class CostTable {
 public:
  CostTable(EnergyModel model, CostParams params);

  [[nodiscard]] const EnergyModel& model() const { return model_; }
  [[nodiscard]] const CostParams& params() const { return params_; }

  /// C_B(k, p): per-cycle cost of running at rate index `rate_idx` in
  /// backward position k (k >= 1; k-1 tasks wait behind this one... k
  /// counts this task plus all tasks after it on the same core).
  [[nodiscard]] double backward_cost(std::size_t k, std::size_t rate_idx) const {
    DVFS_REQUIRE(k >= 1, "backward positions are 1-based");
    return params_.re * model_.energy_per_cycle(rate_idx) +
           static_cast<double>(k) * params_.rt * model_.time_per_cycle(rate_idx);
  }

  /// Forward-position form C(k, p) with n total tasks (Eq. 12):
  /// C(k, p) = C_B(n - k + 1, p).
  [[nodiscard]] double forward_cost(std::size_t k, std::size_t n,
                                    std::size_t rate_idx) const {
    DVFS_REQUIRE(k >= 1 && k <= n, "forward position out of range");
    return backward_cost(n - k + 1, rate_idx);
  }

  /// Optimal rate index for backward position k (ties to the higher rate).
  [[nodiscard]] std::size_t best_rate(std::size_t k) const;

  /// C_B(k) = min_p C_B(k, p) (Eq. 21).
  [[nodiscard]] double best_backward_cost(std::size_t k) const {
    return backward_cost(k, best_rate(k));
  }

  /// The dominating position ranges, ascending in k; their ranges partition
  /// [1, inf) and their rates are the paper's P-hat (ascending).
  [[nodiscard]] std::span<const DominatingRange> ranges() const {
    return shared_->ranges;
  }

  /// Rate indices of P-hat (rates that dominate at least one position),
  /// in ascending rate order.
  [[nodiscard]] std::span<const std::size_t> active_rates() const {
    return shared_->active_rates;
  }

  /// Brute-force reference for best_rate(); O(|P|). Used by tests and the
  /// A1 ablation bench.
  [[nodiscard]] std::size_t best_rate_naive(std::size_t k) const;

  /// Statistics of the process-wide per-rate-set envelope memo: every
  /// CostTable construction either hits an existing entry (same lines) or
  /// builds and caches a new one. Invalidation is by key: a changed rate
  /// set produces different lines and therefore a fresh entry.
  struct SharedCacheStats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t entries = 0;
  };
  [[nodiscard]] static SharedCacheStats shared_cache_stats();
  /// Drops every cached entry (tables already built keep their data alive
  /// through their shared_ptr). Test support.
  static void clear_shared_cache();

 private:
  static std::shared_ptr<const detail::CostTablePrecomputed> precompute(
      std::vector<ds::Line> lines);

  EnergyModel model_;
  CostParams params_;
  std::shared_ptr<const detail::CostTablePrecomputed> shared_;
};

}  // namespace dvfs::core

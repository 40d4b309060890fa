// LogHistogram: a fixed-size histogram of positive samples, for
// percentiles over an unbounded stream (request latencies, sweep MIPS)
// without keeping the samples.
//
// Buckets are log-linear: each power of two in [2^kMinExp, 2^kMaxExp) is
// split into kSubBuckets equal-width buckets, so a bucket is 1/32 to 1/16
// of its value wide. One underflow bucket takes everything below 2^kMinExp
// (zero, negatives, NaN) and one overflow bucket everything from 2^kMaxExp
// up. Recording is O(1) and the footprint is fixed: copying a histogram
// copies one array, whatever the sample count.
#ifndef ZOLCSIM_COMMON_HISTOGRAM_HPP
#define ZOLCSIM_COMMON_HISTOGRAM_HPP

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace zolcsim {

class LogHistogram {
 public:
  static constexpr int kMinExp = -20;  ///< 2^-20 ~ 9.5e-7
  static constexpr int kMaxExp = 20;   ///< 2^20 ~ 1.05e6
  static constexpr int kSubBuckets = 16;
  /// The log-linear buckets plus the underflow and overflow buckets.
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets + 2;

  void record(double value) noexcept {
    ++counts_[bucket_of(value)];
    ++samples_;
  }

  [[nodiscard]] std::uint64_t samples() const noexcept { return samples_; }

  /// The q-th percentile (q in [0, 1]) as the upper bound of the bucket
  /// holding the sample of rank floor(q * samples); 0 when empty. The exact
  /// order statistic lies in that bucket, so the reading is at most one
  /// bucket width above it.
  [[nodiscard]] double percentile(double q) const noexcept {
    if (samples_ == 0) return 0.0;
    const double position = q * static_cast<double>(samples_);
    const std::uint64_t rank =
        std::min(static_cast<std::uint64_t>(position), samples_ - 1);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      seen += counts_[b];
      if (seen > rank) return upper_bound(b);
    }
    return upper_bound(kBuckets - 1);
  }

  /// The bucket `value` is counted in.
  [[nodiscard]] static std::size_t bucket_of(double value) noexcept {
    if (!(value >= std::ldexp(1.0, kMinExp))) return 0;
    if (value >= std::ldexp(1.0, kMaxExp)) return kBuckets - 1;
    int exp = 0;
    const double mantissa = 2.0 * std::frexp(value, &exp);  // in [1, 2)
    const auto octave = static_cast<std::size_t>(exp - 1 - kMinExp);
    const auto sub = static_cast<std::size_t>((mantissa - 1.0) * kSubBuckets);
    return 1 + octave * kSubBuckets + sub;
  }

  /// The exclusive upper bound of bucket `b`; the overflow bucket, which
  /// has none, reads as its lower bound 2^kMaxExp.
  [[nodiscard]] static double upper_bound(std::size_t b) noexcept {
    if (b == 0) return std::ldexp(1.0, kMinExp);
    if (b >= kBuckets - 1) return std::ldexp(1.0, kMaxExp);
    const auto octave = static_cast<int>((b - 1) / kSubBuckets);
    const auto sub = static_cast<int>((b - 1) % kSubBuckets);
    return std::ldexp(1.0 + static_cast<double>(sub + 1) / kSubBuckets,
                      kMinExp + octave);
  }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t samples_ = 0;
};

}  // namespace zolcsim

#endif  // ZOLCSIM_COMMON_HISTOGRAM_HPP

#ifndef SOPS_UTIL_EVENT_SORT_HPP
#define SOPS_UTIL_EVENT_SORT_HPP

/// \file event_sort.hpp
/// Two-level bucket sort for Poisson epoch schedules.
///
/// The sharded runners sort each epoch's deferred events by firing time
/// for the sequential sweep.  A comparison sort pays O(n log n) branchy
/// compares, and an LSD radix over the full 64-bit time pays 4–5 complete
/// passes over an event array that outgrows L2 at large epoch sizes.
///
/// This sort exploits what the runners know about their keys: every
/// firing time lies in the epoch window [begin, end), and the times are a
/// superposition of Poisson processes, i.e. uniform over the window.  So
/// a counting pass + a scatter pass distribute the events into time
/// buckets, and a tiny comparison sort inside each leaf bucket finishes
/// the job.  The distribution runs in two levels: level 1 is capped at
/// 256 buckets so the scatter keeps at most 256 write streams open
/// (one-level scatter into ~n/8 buckets touches that many random cache
/// lines and stalls on L2/TLB misses — measured as bad as the radix it
/// replaced), and level 2 redistributes each level-1 bucket — now small
/// enough to be cache-resident — down to ~8-element leaves.
///
/// Exactness: the time→bucket maps are clamped floor((t−base)·inv)
/// compositions of monotone operations, so they are monotone in t *even
/// under floating-point rounding* — elements in different buckets are
/// correctly ordered no matter where the bucket boundaries actually
/// landed.  Within a leaf the elements are sorted by the caller's
/// `operator<` (the runners' (time, particle) lexicographic order), so
/// the result is the exact total order the sequential sweep contract
/// requires — ties broken by particle id, not by input position.
/// Determinism: the bucket layout is a pure function of (begin, end, n)
/// and the event times, all of which are thread-count-invariant.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"

namespace sops::util {

/// Reusable buffers for sortEventsInWindow — hoist across calls to avoid
/// reallocating the scatter buffer and bucket offsets every epoch.
template <typename T>
struct EventSortScratch {
  std::vector<T> buf;
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> subOffsets;
};

/// Below this size one std::sort call beats the bucket passes.
inline constexpr std::size_t kEventSortCutoff = 1024;
/// Level-1 bucket cap: the scatter pass keeps at most this many write
/// streams open, so its stores stay within the cache/TLB sweet spot.
inline constexpr std::size_t kEventSortMaxStreams = 256;
/// Level-1 buckets at or below this size skip the second distribution
/// and go straight to a comparison sort (they are cache-resident).
inline constexpr std::size_t kEventSortLeafMax = 64;

namespace detail {

/// Second-level distribution of one cache-resident bucket: scatters
/// `src[0, m)` into `dst[0, m)` through ~m/8 sub-buckets of the bucket's
/// own time sub-window, then comparison-sorts each leaf in place.
/// `base`/`width` need not match the level-1 boundaries exactly — the
/// clamped monotone map stays correct for any base (times below it land
/// in leaf 0), and a degenerate width (0/inf/nan map results) collapses
/// everything into leaf 0, which is then just one std::sort.
template <typename T, typename TimeFn>
void sortEventLeafBucket(T* src, T* dst, std::size_t m, double base,
                         double width, TimeFn timeOf,
                         std::vector<std::uint32_t>& offsets) {
  const std::size_t leaves = m / 8;
  const double invWidth = static_cast<double>(leaves) / width;
  const auto leafOf = [&](const T& e) {
    const double x = (timeOf(e) - base) * invWidth;
    return x > 0.0 ? std::min(static_cast<std::size_t>(x), leaves - 1)
                   : std::size_t{0};
  };

  offsets.assign(leaves + 1, 0);
  for (std::size_t i = 0; i < m; ++i) {
    ++offsets[leafOf(src[i]) + 1];
  }
  std::uint32_t running = 0;
  for (std::size_t b = 1; b <= leaves; ++b) {
    running += offsets[b];
    offsets[b] = running;
  }
  for (std::size_t i = 0; i < m; ++i) {
    dst[offsets[leafOf(src[i])]++] = src[i];
  }
  // offsets[b] is now the *end* of leaf b.
  std::size_t start = 0;
  for (std::size_t b = 0; b < leaves; ++b) {
    const std::size_t stop = offsets[b];
    if (stop - start > 1) {
      std::sort(dst + static_cast<std::ptrdiff_t>(start),
                dst + static_cast<std::ptrdiff_t>(stop));
    }
    start = stop;
  }
}

}  // namespace detail

/// Sorts `v` ascending by `T::operator<`, given that `timeOf(e)` is the
/// most-significant component of that order and lies in [begin, end) for
/// every element.  See the file comment for why this beats a general
/// sort on epoch schedules.
template <typename T, typename TimeFn>
void sortEventsInWindow(std::vector<T>& v, EventSortScratch<T>& scratch,
                        double begin, double end, TimeFn timeOf) {
  const std::size_t n = v.size();
  if (n < kEventSortCutoff) {
    std::sort(v.begin(), v.end());
    return;
  }
  SOPS_DASSERT(begin < end);
  const std::size_t buckets = std::min(n / 8, kEventSortMaxStreams);
  const double invWidth = static_cast<double>(buckets) / (end - begin);
  const auto bucketOf = [&](const T& e) {
    SOPS_DASSERT(timeOf(e) >= begin && timeOf(e) < end);
    // The clamp absorbs rounding at the window's upper edge.
    return std::min(
        static_cast<std::size_t>((timeOf(e) - begin) * invWidth),
        buckets - 1);
  };

  scratch.offsets.assign(buckets + 1, 0);
  for (const T& e : v) {
    ++scratch.offsets[bucketOf(e) + 1];
  }
  std::uint32_t running = 0;
  for (std::size_t b = 1; b <= buckets; ++b) {
    running += scratch.offsets[b];
    scratch.offsets[b] = running;
  }
  scratch.buf.resize(n);
  for (const T& e : v) {
    scratch.buf[scratch.offsets[bucketOf(e)]++] = e;
  }
  // offsets[b] is now the *end* of bucket b (and the start of b + 1).
  // Finish each bucket from scratch.buf back into v, so the sorted
  // result lands in v without a final copy.
  const double width = (end - begin) / static_cast<double>(buckets);
  std::size_t start = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::size_t stop = scratch.offsets[b];
    const std::size_t m = stop - start;
    if (m > kEventSortLeafMax) {
      detail::sortEventLeafBucket(
          scratch.buf.data() + start, v.data() + start, m,
          begin + static_cast<double>(b) * width, width, timeOf,
          scratch.subOffsets);
    } else if (m > 0) {
      std::sort(scratch.buf.begin() + static_cast<std::ptrdiff_t>(start),
                scratch.buf.begin() + static_cast<std::ptrdiff_t>(stop));
      std::copy(scratch.buf.begin() + static_cast<std::ptrdiff_t>(start),
                scratch.buf.begin() + static_cast<std::ptrdiff_t>(stop),
                v.begin() + static_cast<std::ptrdiff_t>(start));
    }
    start = stop;
  }
}

}  // namespace sops::util

#endif  // SOPS_UTIL_EVENT_SORT_HPP

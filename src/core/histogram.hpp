// Fixed-width class histograms for quantized split finding (PV-Tree mode,
// arXiv 1611.01276; DESIGN.md §10).
//
// For each (frontier node, continuous attribute) pair the ranks build a
// histogram of `bins` equal-width bins over the node's global value range
// [lo, hi] (obtained from one packed min/max allreduce, so the bin function
// is byte-identical on every rank). Each bin carries per-class record
// counts plus the minimum actual value that landed in it. Candidates are
// evaluated at bin boundaries through the same incremental sums-of-squares
// kernel (weighted_gini_from_sumsq) as the exact scan, and the winning
// threshold is the candidate bin's recorded minimum value — a real data
// value, so the realized partition "A < threshold" is exactly the histogram
// partition (binning is monotone in the value) and the predicted child
// counts are exact.
#pragma once

#include <cstdint>
#include <limits>
#include <span>

#include "core/count_matrix.hpp"
#include "core/options.hpp"
#include "core/split_finder.hpp"

namespace scalparc::core {

// Global value range of one (node, attribute) pair. Merged with RangeOp; an
// empty range (no records) stays at the identity and produces bin 0 for
// every value, which never yields a candidate.
struct ValueRange {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  bool empty() const { return !(hi >= lo); }
};

struct RangeOp {
  ValueRange operator()(const ValueRange& a, const ValueRange& b) const {
    ValueRange out;
    out.lo = a.lo < b.lo ? a.lo : b.lo;
    out.hi = a.hi > b.hi ? a.hi : b.hi;
    return out;
  }
};

// Deterministic bin of `v` within `range`: floor of the affine map onto
// [0, bins), clamped to the ends. Monotone in v; identical doubles in,
// identical bin out on every rank. A degenerate range (hi <= lo) maps
// everything to bin 0.
inline int histogram_bin_of(double v, const ValueRange& range, int bins) {
  if (!(range.hi > range.lo)) return 0;
  const double scaled =
      (v - range.lo) / (range.hi - range.lo) * static_cast<double>(bins);
  if (!(scaled > 0.0)) return 0;
  const int b = static_cast<int>(scaled);
  return b >= bins ? bins - 1 : b;
}

// Accumulates one node's rows into `counts` ([bin][class], bins*classes,
// caller-zeroed) and `bin_min` ([bin], caller-initialized to +inf).
void histogram_accumulate(std::span<const double> values,
                          std::span<const std::int32_t> cls,
                          const ValueRange& range, int bins, int classes,
                          std::span<WireCount> counts,
                          std::span<double> bin_min);

// Improves `best` in place with the best bin-boundary candidate of one
// (node, attribute) histogram. `counts`/`bin_min` as produced by
// histogram_accumulate (locally or merged); `node_totals` must be the
// per-class totals of the same population the histogram was built from
// (local totals for local scoring, the node's global class totals after a
// merge). Evaluation walks bins left to right with an
// IncrementalImpurityScanner; the candidate at bin b is "A < bin_min[b]".
void best_histogram_split(std::span<const WireCount> counts,
                          std::span<const double> bin_min,
                          std::span<const std::int64_t> node_totals, int bins,
                          SplitCriterion criterion, std::int32_t attribute,
                          SplitCandidate& best);

}  // namespace scalparc::core

#include "core/histogram.hpp"

#include <stdexcept>
#include <vector>

#include "core/gini.hpp"

namespace scalparc::core {

void histogram_accumulate(std::span<const double> values,
                          std::span<const std::int32_t> cls,
                          const ValueRange& range, int bins, int classes,
                          std::span<WireCount> counts,
                          std::span<double> bin_min) {
  if (values.size() != cls.size() ||
      counts.size() != static_cast<std::size_t>(bins) *
                           static_cast<std::size_t>(classes) ||
      bin_min.size() != static_cast<std::size_t>(bins)) {
    throw std::invalid_argument("histogram_accumulate: size mismatch");
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double v = values[i];
    const auto b = static_cast<std::size_t>(histogram_bin_of(v, range, bins));
    ++counts[b * static_cast<std::size_t>(classes) +
             static_cast<std::size_t>(cls[i])];
    if (v < bin_min[b]) bin_min[b] = v;
  }
}

void best_histogram_split(std::span<const WireCount> counts,
                          std::span<const double> bin_min,
                          std::span<const std::int64_t> node_totals, int bins,
                          SplitCriterion criterion, std::int32_t attribute,
                          SplitCandidate& best) {
  const auto c = node_totals.size();
  if (counts.size() != static_cast<std::size_t>(bins) * c ||
      bin_min.size() != static_cast<std::size_t>(bins)) {
    throw std::invalid_argument("best_histogram_split: size mismatch");
  }
  // The scanner starts with an empty left partition; rows enter it bin by
  // bin, so current_impurity() before absorbing bin b is the weighted
  // impurity of the cut "A < bin_min[b]" (bins < b left, bins >= b right).
  std::vector<std::int64_t> zeros(c, 0);
  IncrementalImpurityScanner scanner(node_totals, zeros, criterion);
  for (int b = 0; b < bins; ++b) {
    const std::span<const WireCount> row =
        counts.subspan(static_cast<std::size_t>(b) * c, c);
    bool nonempty = false;
    for (const WireCount n : row) nonempty |= n > 0;
    if (!nonempty) continue;
    if (scanner.below_total() > 0) {
      SplitCandidate candidate;
      candidate.gini = scanner.current_impurity();
      candidate.attribute = attribute;
      candidate.kind = SplitKind::kContinuous;
      candidate.threshold = bin_min[static_cast<std::size_t>(b)];
      if (candidate_less(candidate, best)) best = candidate;
    }
    for (std::size_t j = 0; j < c; ++j) {
      if (row[j] > 0) scanner.advance_run(static_cast<std::int32_t>(j), row[j]);
    }
  }
}

}  // namespace scalparc::core

// Count matrices (§2): per-partition class histograms.
//
// A CountMatrix has one row per candidate partition (2 for a continuous
// binary split, `cardinality` for a categorical multi-way split) and one
// column per class; entry (i, j) is n_ij, the number of records of class j
// in partition i. Stored flat so a matrix can go over the wire and through
// reductions unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

namespace scalparc::core {

// Per-level class counts — histogram bins, count matrices, prefix counts
// and child counts — are stored and sent as uint32 by both induction
// engines: a fit holds fewer than 2^32 records
// (internal::validate_controls), so no count, local or merged, can
// overflow. Tree nodes keep int64 counts.
using WireCount = std::uint32_t;

class CountMatrix {
 public:
  CountMatrix() = default;
  CountMatrix(int rows, int cols) : rows_(rows), cols_(cols) {
    if (rows < 0 || cols <= 0) {
      throw std::invalid_argument("CountMatrix: bad shape");
    }
    counts_.assign(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
                   0);
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  std::int64_t& at(int row, int col) {
    return counts_[static_cast<std::size_t>(row) * static_cast<std::size_t>(cols_) +
                   static_cast<std::size_t>(col)];
  }
  std::int64_t at(int row, int col) const {
    return counts_[static_cast<std::size_t>(row) * static_cast<std::size_t>(cols_) +
                   static_cast<std::size_t>(col)];
  }

  void increment(int row, int col) { ++at(row, col); }

  std::int64_t row_total(int row) const {
    const auto* begin = counts_.data() +
                        static_cast<std::size_t>(row) * static_cast<std::size_t>(cols_);
    return std::accumulate(begin, begin + cols_, std::int64_t{0});
  }

  std::int64_t total() const {
    return std::accumulate(counts_.begin(), counts_.end(), std::int64_t{0});
  }

  std::span<const std::int64_t> flat() const { return counts_; }
  std::span<std::int64_t> flat_mutable() { return counts_; }

  // Reconstructs a matrix from its flat form (int64 or WireCount counts).
  template <typename Count>
  static CountMatrix from_flat(int rows, int cols,
                               std::span<const Count> flat) {
    CountMatrix m(rows, cols);
    if (flat.size() != m.counts_.size()) {
      throw std::invalid_argument("CountMatrix::from_flat: size mismatch");
    }
    std::copy(flat.begin(), flat.end(), m.counts_.begin());
    return m;
  }

  CountMatrix& operator+=(const CountMatrix& other) {
    if (rows_ != other.rows_ || cols_ != other.cols_) {
      throw std::invalid_argument("CountMatrix::operator+=: shape mismatch");
    }
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
    return *this;
  }

  bool operator==(const CountMatrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ && counts_ == other.counts_;
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<std::int64_t> counts_;
};

}  // namespace scalparc::core

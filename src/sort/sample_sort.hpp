// Scalable parallel sample sort (the paper's Presort phase).
//
// ScalParC sorts every continuous attribute list exactly once, using "the
// scalable parallel sample sort algorithm followed by a parallel shift
// operation" (§4). This header implements sample sort over any trivially
// copyable element type with a strict-weak-order comparator:
//
//   1. sort locally;
//   2. pick p-1 regular samples per rank, gather them, choose p-1 global
//      splitters from the sorted sample set;
//   3. partition local data by the splitters and exchange with one
//      all-to-all personalized communication;
//   4. merge the received sorted runs.
//
// The comparator must induce a total order for the exchange to be
// deterministic under duplicate keys; attribute lists use (value, rid).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "data/attribute_list.hpp"
#include "mp/collectives.hpp"
#include "mp/comm.hpp"
#include "sort/columns_wire.hpp"
#include "sort/partition_util.hpp"
#include "sort/rebalance.hpp"

namespace scalparc::sort {

namespace detail {

// Merges k sorted runs laid out contiguously in `data` with boundaries
// `offsets` (offsets.size() == k + 1) using pairwise std::inplace_merge.
template <typename T, typename Less>
void merge_runs(std::vector<T>& data, std::vector<std::size_t> offsets,
                Less less) {
  while (offsets.size() > 2) {
    std::vector<std::size_t> next;
    next.reserve(offsets.size() / 2 + 1);
    next.push_back(offsets.front());
    for (std::size_t i = 0; i + 2 < offsets.size(); i += 2) {
      std::inplace_merge(data.begin() + static_cast<std::ptrdiff_t>(offsets[i]),
                         data.begin() + static_cast<std::ptrdiff_t>(offsets[i + 1]),
                         data.begin() + static_cast<std::ptrdiff_t>(offsets[i + 2]),
                         less);
      next.push_back(offsets[i + 2]);
    }
    if (offsets.size() % 2 == 0) next.push_back(offsets.back());
    offsets = std::move(next);
  }
}

}  // namespace detail

// Sorts the union of all ranks' `local` data. On return, every rank holds a
// sorted run and runs are globally ordered by rank (rank 0 holds the
// smallest elements). Element counts per rank are data-dependent; use
// rebalance() afterwards to restore an exact block distribution.
template <mp::WireType T, typename Less>
std::vector<T> sample_sort(mp::Comm& comm, std::vector<T> local, Less less) {
  const int p = comm.size();

  std::sort(local.begin(), local.end(), less);
  if (!local.empty()) {
    comm.add_work(static_cast<double>(local.size()) *
                  std::log2(static_cast<double>(local.size()) + 1.0));
  }
  if (p == 1) return local;

  // Regular sampling: p-1 samples per rank.
  std::vector<T> samples;
  samples.reserve(static_cast<std::size_t>(p - 1));
  for (int i = 1; i < p; ++i) {
    if (local.empty()) break;
    const std::size_t idx =
        (static_cast<std::size_t>(i) * local.size()) / static_cast<std::size_t>(p);
    samples.push_back(local[std::min(idx, local.size() - 1)]);
  }
  std::vector<T> all_samples =
      mp::allgatherv_concat(comm, std::span<const T>(samples));
  std::sort(all_samples.begin(), all_samples.end(), less);

  // p-1 splitters chosen regularly from the gathered samples.
  std::vector<T> splitters;
  splitters.reserve(static_cast<std::size_t>(p - 1));
  if (!all_samples.empty()) {
    for (int i = 1; i < p; ++i) {
      const std::size_t idx = (static_cast<std::size_t>(i) * all_samples.size()) /
                              static_cast<std::size_t>(p);
      splitters.push_back(all_samples[std::min(idx, all_samples.size() - 1)]);
    }
  }

  // Partition local data into p destination buckets by splitter.
  std::vector<std::vector<T>> sendbufs(static_cast<std::size_t>(p));
  if (splitters.empty()) {
    sendbufs[0] = std::move(local);
  } else {
    std::size_t begin = 0;
    for (int d = 0; d < p; ++d) {
      std::size_t end;
      if (d == p - 1) {
        end = local.size();
      } else {
        const auto it = std::upper_bound(
            local.begin() + static_cast<std::ptrdiff_t>(begin), local.end(),
            splitters[static_cast<std::size_t>(d)], less);
        end = static_cast<std::size_t>(it - local.begin());
      }
      sendbufs[static_cast<std::size_t>(d)]
          .assign(local.begin() + static_cast<std::ptrdiff_t>(begin),
                  local.begin() + static_cast<std::ptrdiff_t>(end));
      begin = end;
    }
    local.clear();
  }

  std::vector<std::vector<T>> recvbufs =
      mp::alltoallv(comm, std::move(sendbufs));

  // Concatenate the p sorted runs and merge them.
  std::vector<T> merged;
  std::vector<std::size_t> run_offsets;
  run_offsets.reserve(recvbufs.size() + 1);
  run_offsets.push_back(0);
  std::size_t total = 0;
  for (const auto& run : recvbufs) total += run.size();
  merged.reserve(total);
  for (auto& run : recvbufs) {
    merged.insert(merged.end(), run.begin(), run.end());
    run_offsets.push_back(merged.size());
  }
  detail::merge_runs(merged, std::move(run_offsets), less);
  comm.add_work(static_cast<double>(merged.size()) *
                std::log2(static_cast<double>(p) + 1.0));
  return merged;
}

// ---------------------------------------------------------------------------
// SoA variant: sample sort over ContinuousColumns by (value, rid).
//
// Same algorithm, columnar data plane: the local sort runs over an index
// permutation (8-byte moves instead of 24-byte struct moves), splitters
// travel as (value, rid) pairs, and the all-to-all exchanges packed column
// slices at 20 bytes per record. The global result — the unique totally
// ordered sequence re-tiled by rank — is identical to sorting the
// equivalent AoS entries.
// ---------------------------------------------------------------------------

namespace detail {

// Splitter wire form for the columnar sort.
struct ValueRid {
  double value = 0.0;
  std::int64_t rid = 0;
};

struct ValueRidLess {
  bool operator()(const ValueRid& a, const ValueRid& b) const {
    if (a.value != b.value) return a.value < b.value;
    return a.rid < b.rid;
  }
};

// Applies permutation `perm` to all three columns (gather pass).
inline data::ContinuousColumns permute_columns(
    const data::ContinuousColumns& cols, std::span<const std::size_t> perm) {
  data::ContinuousColumns out;
  out.resize(cols.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    out.set(i, cols, perm[i]);
  }
  return out;
}

// First index in sorted columns whose (value, rid) exceeds the splitter.
inline std::size_t upper_bound_columns(const data::ContinuousColumns& cols,
                                       std::size_t begin, const ValueRid& key) {
  std::size_t lo = begin;
  std::size_t hi = cols.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const bool key_below = key.value < cols.values[mid] ||
                           (key.value == cols.values[mid] &&
                            key.rid < cols.rids[mid]);
    if (key_below) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace detail

inline data::ContinuousColumns sample_sort_columns(mp::Comm& comm,
                                                   data::ContinuousColumns local) {
  const int p = comm.size();
  const std::size_t n = local.size();

  // Local sort by permutation, then one gather pass per column.
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::sort(perm.begin(), perm.end(),
            [&local](std::size_t a, std::size_t b) {
              if (local.values[a] != local.values[b]) {
                return local.values[a] < local.values[b];
              }
              return local.rids[a] < local.rids[b];
            });
  local = detail::permute_columns(local, perm);
  if (n > 0) {
    comm.add_work(static_cast<double>(n) *
                  std::log2(static_cast<double>(n) + 1.0));
  }
  if (p == 1) return local;

  // Regular sampling and global splitters, exactly as the AoS path.
  std::vector<detail::ValueRid> samples;
  samples.reserve(static_cast<std::size_t>(p - 1));
  for (int i = 1; i < p; ++i) {
    if (local.empty()) break;
    const std::size_t idx =
        (static_cast<std::size_t>(i) * n) / static_cast<std::size_t>(p);
    const std::size_t at = std::min(idx, n - 1);
    samples.push_back(detail::ValueRid{local.values[at], local.rids[at]});
  }
  std::vector<detail::ValueRid> all_samples =
      mp::allgatherv_concat(comm, std::span<const detail::ValueRid>(samples));
  std::sort(all_samples.begin(), all_samples.end(), detail::ValueRidLess{});

  std::vector<detail::ValueRid> splitters;
  splitters.reserve(static_cast<std::size_t>(p - 1));
  if (!all_samples.empty()) {
    for (int i = 1; i < p; ++i) {
      const std::size_t idx = (static_cast<std::size_t>(i) * all_samples.size()) /
                              static_cast<std::size_t>(p);
      splitters.push_back(all_samples[std::min(idx, all_samples.size() - 1)]);
    }
  }

  // Partition into packed per-destination slices and exchange once.
  std::vector<std::vector<std::byte>> sendbufs(static_cast<std::size_t>(p));
  if (splitters.empty()) {
    sendbufs[0] = pack_columns(local, 0, local.size());
  } else {
    std::size_t begin = 0;
    for (int d = 0; d < p; ++d) {
      const std::size_t end =
          d == p - 1 ? local.size()
                     : detail::upper_bound_columns(
                           local, begin, splitters[static_cast<std::size_t>(d)]);
      sendbufs[static_cast<std::size_t>(d)] = pack_columns(local, begin, end);
      begin = end;
    }
  }
  local.clear();
  std::vector<std::vector<std::byte>> recvbufs =
      mp::alltoallv(comm, std::move(sendbufs));

  // Concatenate the received runs and merge them through an index merge, so
  // each record moves once in the final gather.
  data::ContinuousColumns merged;
  std::vector<std::size_t> run_offsets;
  run_offsets.reserve(recvbufs.size() + 1);
  run_offsets.push_back(0);
  for (const auto& run : recvbufs) {
    unpack_columns(run, merged);
    run_offsets.push_back(merged.size());
  }
  std::vector<std::size_t> order(merged.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto less = [&merged](std::size_t a, std::size_t b) {
    if (merged.values[a] != merged.values[b]) {
      return merged.values[a] < merged.values[b];
    }
    return merged.rids[a] < merged.rids[b];
  };
  while (run_offsets.size() > 2) {
    std::vector<std::size_t> next;
    next.reserve(run_offsets.size() / 2 + 1);
    next.push_back(run_offsets.front());
    for (std::size_t i = 0; i + 2 < run_offsets.size(); i += 2) {
      std::inplace_merge(
          order.begin() + static_cast<std::ptrdiff_t>(run_offsets[i]),
          order.begin() + static_cast<std::ptrdiff_t>(run_offsets[i + 1]),
          order.begin() + static_cast<std::ptrdiff_t>(run_offsets[i + 2]), less);
      next.push_back(run_offsets[i + 2]);
    }
    if (run_offsets.size() % 2 == 0) next.push_back(run_offsets.back());
    run_offsets = std::move(next);
  }
  comm.add_work(static_cast<double>(merged.size()) *
                std::log2(static_cast<double>(p) + 1.0));
  return detail::permute_columns(merged, order);
}

// SoA variant of the order-preserving parallel shift (see sort/rebalance.hpp
// for the contract); exchanges packed column slices.
inline data::ContinuousColumns rebalance_columns(
    mp::Comm& comm, data::ContinuousColumns local,
    const std::vector<std::size_t>& target_sizes) {
  const int p = comm.size();
  if (p == 1) return local;

  const std::uint64_t local_size = local.size();
  const std::uint64_t my_start =
      mp::exscan_value(comm, local_size, mp::SumOp{}, std::uint64_t{0});
  const std::vector<std::size_t> target_offsets =
      offsets_from_sizes(target_sizes);

  std::vector<std::vector<std::byte>> sendbufs(static_cast<std::size_t>(p));
  std::size_t cursor = 0;
  while (cursor < local.size()) {
    const std::size_t global = static_cast<std::size_t>(my_start) + cursor;
    const int dst = owner_of_global_index(global, target_offsets);
    const std::size_t dst_end = target_offsets[static_cast<std::size_t>(dst) + 1];
    const std::size_t take = std::min(local.size() - cursor, dst_end - global);
    sendbufs[static_cast<std::size_t>(dst)] =
        pack_columns(local, cursor, cursor + take);
    cursor += take;
  }
  local.clear();

  std::vector<std::vector<std::byte>> recvbufs =
      mp::alltoallv(comm, std::move(sendbufs));
  data::ContinuousColumns out;
  out.reserve(target_sizes[static_cast<std::size_t>(comm.rank())]);
  // Sources arrive in rank order, which is global order.
  for (const auto& chunk : recvbufs) unpack_columns(chunk, out);
  return out;
}

}  // namespace scalparc::sort

// Order-preserving parallel shift: redistributes rank-ordered data into an
// exact block distribution (the paper's "parallel shift operation" that
// follows sample sort, §4).
//
// Given that rank i holds a chunk whose elements globally precede rank
// i+1's, rebalance() moves elements so that rank i ends up with exactly
// `target_sizes[i]` elements while preserving global order. With the default
// targets this restores the equal-fragments layout the induction phases
// assume.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "mp/collectives.hpp"
#include "mp/comm.hpp"
#include "sort/partition_util.hpp"

namespace scalparc::sort {

// Destination rank layout for a global index, given target chunk offsets
// (targets_offsets.size() == p + 1).
int owner_of_global_index(std::size_t global_index,
                          const std::vector<std::size_t>& target_offsets);

template <mp::WireType T>
std::vector<T> rebalance(mp::Comm& comm, std::vector<T> local,
                         const std::vector<std::size_t>& target_sizes) {
  const int p = comm.size();
  if (p == 1) return local;

  const std::uint64_t local_size = local.size();
  const std::uint64_t my_start =
      mp::exscan_value(comm, local_size, mp::SumOp{}, std::uint64_t{0});
  const std::vector<std::size_t> target_offsets = offsets_from_sizes(target_sizes);

  std::vector<std::vector<T>> sendbufs(static_cast<std::size_t>(p));
  std::size_t cursor = 0;
  while (cursor < local.size()) {
    const std::size_t global = static_cast<std::size_t>(my_start) + cursor;
    const int dst = owner_of_global_index(global, target_offsets);
    // Send the whole contiguous range destined for `dst` in one piece.
    const std::size_t dst_end = target_offsets[static_cast<std::size_t>(dst) + 1];
    const std::size_t take =
        std::min(local.size() - cursor, dst_end - global);
    auto first = local.begin() + static_cast<std::ptrdiff_t>(cursor);
    sendbufs[static_cast<std::size_t>(dst)]
        .insert(sendbufs[static_cast<std::size_t>(dst)].end(), first,
                first + static_cast<std::ptrdiff_t>(take));
    cursor += take;
  }
  local.clear();

  std::vector<std::vector<T>> recvbufs =
      mp::alltoallv(comm, std::move(sendbufs));
  std::vector<T> out;
  out.reserve(target_sizes[static_cast<std::size_t>(comm.rank())]);
  // Sources arrive in rank order, which is global order.
  for (auto& chunk : recvbufs) {
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  return out;
}

// Convenience: rebalance to the canonical equal block distribution of the
// global total.
template <mp::WireType T>
std::vector<T> rebalance_equal(mp::Comm& comm, std::vector<T> local) {
  const std::uint64_t total = mp::allreduce_value(
      comm, static_cast<std::uint64_t>(local.size()), mp::SumOp{});
  return rebalance(comm, std::move(local),
                   equal_partition_sizes(total, comm.size()));
}

}  // namespace scalparc::sort

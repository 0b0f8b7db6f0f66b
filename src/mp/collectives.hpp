// Collective operations for the in-process message-passing runtime.
//
// All collectives are SPMD: every rank of the communicator must call the
// same collectives in the same order. Algorithms follow the classic MPI
// implementations so that modeled costs have realistic shapes:
//   bcast / reduce      binomial tree          O(log p) rounds
//   allreduce           reduce + bcast         O(log p) rounds
//   exscan              distance doubling      O(log p) rounds
//   gather(v)           linear to root         O(p) messages at root
//   allgather(v)        gather + bcast
//   alltoallv           buffered pairwise      p-1 messages per rank
//
// Value types must be trivially copyable (WireType). Combine functors must
// be associative; all uses in this library are also commutative.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "mp/comm.hpp"
#include "util/memory_meter.hpp"

namespace scalparc::mp {

// ---------------------------------------------------------------------------
// Common combine functors.
// ---------------------------------------------------------------------------

struct SumOp {
  template <typename T>
  T operator()(const T& a, const T& b) const {
    return a + b;
  }
};

struct MinOp {
  template <typename T>
  T operator()(const T& a, const T& b) const {
    return b < a ? b : a;
  }
};

struct MaxOp {
  template <typename T>
  T operator()(const T& a, const T& b) const {
    return a < b ? b : a;
  }
};

// ---------------------------------------------------------------------------
// Broadcast (binomial tree rooted at `root`).
// ---------------------------------------------------------------------------

template <WireType T>
void bcast(Comm& comm, std::vector<T>& data, int root) {
  const int p = comm.size();
  if (root < 0 || root >= p) throw std::invalid_argument("bcast: bad root");
  Comm::OpScope scope(comm, CommOp::kBroadcast);
  const std::int64_t tag = comm.next_collective_tag();
  if (p == 1) return;
  const int vrank = (comm.rank() - root + p) % p;

  int mask = 1;
  while (mask < p) {
    if (vrank & mask) {
      const int src = (vrank - mask + root) % p;
      data = comm.recv<T>(src, tag);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if ((vrank & (mask - 1)) == 0 && (vrank | mask) != vrank && vrank + mask < p) {
      const int dst = (vrank + mask + root) % p;
      comm.send<T>(dst, tag, std::span<const T>(data));
    }
    mask >>= 1;
  }
}

template <WireType T>
T bcast_value(Comm& comm, T value, int root) {
  std::vector<T> data;
  if (comm.rank() == root) data.push_back(value);
  bcast(comm, data, root);
  return data.at(0);
}

// ---------------------------------------------------------------------------
// Reduce to root (binomial tree). Only the root's return value is defined.
// ---------------------------------------------------------------------------

template <WireType T, typename Combine>
std::vector<T> reduce_vec(Comm& comm, std::span<const T> local, Combine combine,
                          int root) {
  const int p = comm.size();
  if (root < 0 || root >= p) throw std::invalid_argument("reduce: bad root");
  Comm::OpScope scope(comm, CommOp::kReduce);
  const std::int64_t tag = comm.next_collective_tag();
  std::vector<T> acc(local.begin(), local.end());
  if (p == 1) return acc;
  const int vrank = (comm.rank() - root + p) % p;

  int mask = 1;
  while (mask < p) {
    if ((vrank & mask) == 0) {
      const int vsrc = vrank | mask;
      if (vsrc < p) {
        const int src = (vsrc + root) % p;
        std::vector<T> incoming = comm.recv<T>(src, tag);
        if (incoming.size() != acc.size()) {
          throw std::logic_error("reduce_vec: mismatched lengths across ranks");
        }
        for (std::size_t i = 0; i < acc.size(); ++i) {
          acc[i] = combine(acc[i], incoming[i]);
        }
      }
    } else {
      // The accumulator is dead after this send: move it into the mailbox so
      // the parent's recv reclaims the buffer without copying.
      const int dst = ((vrank & ~mask) + root) % p;
      comm.send<T>(dst, tag, std::move(acc));
      break;
    }
    mask <<= 1;
  }
  return acc;
}

template <WireType T, typename Combine>
T reduce_value(Comm& comm, const T& value, Combine combine, int root) {
  std::vector<T> acc =
      reduce_vec(comm, std::span<const T>(&value, 1), combine, root);
  // Non-roots surrendered their accumulator to the mailbox; their return
  // value is undefined by contract.
  return acc.empty() ? value : acc.at(0);
}

// ---------------------------------------------------------------------------
// Allreduce = reduce to rank 0 + broadcast.
// ---------------------------------------------------------------------------

template <WireType T, typename Combine>
std::vector<T> allreduce_vec(Comm& comm, std::span<const T> local,
                             Combine combine) {
  Comm::OpScope scope(comm, CommOp::kAllreduce);
  std::vector<T> acc = reduce_vec(comm, local, combine, /*root=*/0);
  bcast(comm, acc, /*root=*/0);
  return acc;
}

template <WireType T, typename Combine>
T allreduce_value(Comm& comm, const T& value, Combine combine) {
  std::vector<T> acc =
      allreduce_vec(comm, std::span<const T>(&value, 1), combine);
  return acc.at(0);
}

// ---------------------------------------------------------------------------
// Barrier: an allreduce of one byte. Costs O(log p) latency rounds, which is
// the realistic shape for a software barrier.
// ---------------------------------------------------------------------------

inline void barrier(Comm& comm) {
  Comm::OpScope scope(comm, CommOp::kBarrier);
  (void)allreduce_value<char>(comm, 0, MaxOp{});
}

// ---------------------------------------------------------------------------
// Exclusive scan (distance doubling / Hillis-Steele). Rank r returns
// combine(x_0, ..., x_{r-1}); rank 0 returns `identity`. Element-wise over
// equal-length vectors.
// ---------------------------------------------------------------------------

template <WireType T, typename Combine>
std::vector<T> exscan_vec(Comm& comm, std::span<const T> local,
                          Combine combine, const T& identity) {
  const int p = comm.size();
  const int r = comm.rank();
  Comm::OpScope scope(comm, CommOp::kScan);

  // `segment` covers ranks [max(0, r-d+1) .. r] after the step of stride d;
  // `exclusive` covers [max(0, r-d+1)-? .. r-1] growing leftwards.
  std::vector<T> segment(local.begin(), local.end());
  std::vector<T> exclusive(local.size(), identity);
  for (int d = 1; d < p; d <<= 1) {
    const std::int64_t tag = comm.next_collective_tag();
    if (r + d < p) comm.send<T>(r + d, tag, std::span<const T>(segment));
    if (r - d >= 0) {
      std::vector<T> incoming = comm.recv<T>(r - d, tag);
      if (incoming.size() != segment.size()) {
        throw std::logic_error("exscan_vec: mismatched lengths across ranks");
      }
      for (std::size_t i = 0; i < segment.size(); ++i) {
        exclusive[i] = combine(incoming[i], exclusive[i]);
        segment[i] = combine(incoming[i], segment[i]);
      }
    }
  }
  return exclusive;
}

template <WireType T, typename Combine>
T exscan_value(Comm& comm, const T& value, Combine combine, const T& identity) {
  std::vector<T> out =
      exscan_vec(comm, std::span<const T>(&value, 1), combine, identity);
  return out.at(0);
}

// ---------------------------------------------------------------------------
// Gather / gatherv (linear to root).
// ---------------------------------------------------------------------------

// Gathers one value from every rank; the root's result is indexed by rank,
// non-roots get an empty vector.
template <WireType T>
std::vector<T> gather_values(Comm& comm, const T& value, int root) {
  const int p = comm.size();
  if (root < 0 || root >= p) throw std::invalid_argument("gather: bad root");
  Comm::OpScope scope(comm, CommOp::kGather);
  const std::int64_t tag = comm.next_collective_tag();
  if (comm.rank() != root) {
    comm.send_value(root, tag, value);
    return {};
  }
  std::vector<T> out;
  out.reserve(static_cast<std::size_t>(p));
  for (int src = 0; src < p; ++src) {
    if (src == root) {
      out.push_back(value);
    } else {
      out.push_back(comm.recv_value<T>(src, tag));
    }
  }
  return out;
}

// Gathers a variable-length chunk from every rank; the root's result is the
// per-source list of chunks, non-roots get an empty vector.
template <WireType T>
std::vector<std::vector<T>> gatherv(Comm& comm, std::span<const T> local,
                                    int root) {
  const int p = comm.size();
  if (root < 0 || root >= p) throw std::invalid_argument("gatherv: bad root");
  Comm::OpScope scope(comm, CommOp::kGather);
  const std::int64_t tag = comm.next_collective_tag();
  if (comm.rank() != root) {
    comm.send<T>(root, tag, local);
    return {};
  }
  std::vector<std::vector<T>> out(static_cast<std::size_t>(p));
  for (int src = 0; src < p; ++src) {
    if (src == root) {
      out[static_cast<std::size_t>(src)].assign(local.begin(), local.end());
    } else {
      out[static_cast<std::size_t>(src)] = comm.recv<T>(src, tag);
    }
  }
  return out;
}

// Concatenation allgather: every rank receives the concatenation (in rank
// order) of all local chunks. This is the pattern whose O(N) per-processor
// cost makes the parallel SPRINT baseline unscalable.
template <WireType T>
std::vector<T> allgatherv_concat(Comm& comm, std::span<const T> local) {
  Comm::OpScope scope(comm, CommOp::kAllgather);
  std::vector<std::vector<T>> chunks = gatherv(comm, local, /*root=*/0);
  std::vector<T> flat;
  if (comm.is_root()) {
    std::size_t total = 0;
    for (const auto& c : chunks) total += c.size();
    flat.reserve(total);
    for (const auto& c : chunks) flat.insert(flat.end(), c.begin(), c.end());
  }
  bcast(comm, flat, /*root=*/0);
  util::ScopedAllocation buffers(comm.meter(), util::MemCategory::kCommBuffers,
                                 flat.size() * sizeof(T));
  return flat;
}

// ---------------------------------------------------------------------------
// All-to-all personalized exchange of variable-length chunks: sendbufs[d] is
// delivered to rank d; the result's element [s] is the chunk received from
// rank s. This is the core primitive of the parallel hashing paradigm.
// The send buffers are taken by value and moved into the mailbox, so a
// caller that passes them with std::move copies no message.
// ---------------------------------------------------------------------------

template <WireType T>
std::vector<std::vector<T>> alltoallv(Comm& comm,
                                      std::vector<std::vector<T>> sendbufs) {
  const int p = comm.size();
  if (static_cast<int>(sendbufs.size()) != p) {
    throw std::invalid_argument("alltoallv: need one send buffer per rank");
  }
  Comm::OpScope scope(comm, CommOp::kAlltoall);
  const std::int64_t tag = comm.next_collective_tag();

  // Account staged send + receive buffers against this rank's memory: the
  // paper's Figure 3(b) attributes the large-p deviation from perfect
  // halving to exactly these buffers.
  std::size_t staged = 0;
  for (const auto& buf : sendbufs) staged += buf.size() * sizeof(T);
  util::ScopedAllocation send_side(comm.meter(), util::MemCategory::kCommBuffers,
                                   staged);

  const int r = comm.rank();
  for (int offset = 1; offset < p; ++offset) {
    const int dst = (r + offset) % p;
    comm.send<T>(dst, tag, std::move(sendbufs[static_cast<std::size_t>(dst)]));
  }
  std::vector<std::vector<T>> recvbufs(static_cast<std::size_t>(p));
  recvbufs[static_cast<std::size_t>(r)] =
      std::move(sendbufs[static_cast<std::size_t>(r)]);
  std::size_t received = 0;
  for (int offset = 1; offset < p; ++offset) {
    const int src = (r - offset + p) % p;
    recvbufs[static_cast<std::size_t>(src)] = comm.recv<T>(src, tag);
    received += recvbufs[static_cast<std::size_t>(src)].size() * sizeof(T);
  }
  util::ScopedAllocation recv_side(comm.meter(), util::MemCategory::kCommBuffers,
                                   received);
  return recvbufs;
}

}  // namespace scalparc::mp

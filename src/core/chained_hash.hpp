// Distributed hash table with open chaining (§3.3.1, closing remark).
//
// The node table's hash is collision-free because record ids densely cover
// [0, N). The paper notes the paradigm "can also support collisions by
// implementing open chaining at the indices l of the local hash tables" —
// which is what makes it reusable for algorithms whose keys are arbitrary.
// DistributedChainedHashTable implements exactly that: arbitrary 64-bit
// keys, a fixed number of buckets block-distributed over the ranks,
// per-bucket chains at the owners, and the same buffered all-to-all
// update/enquiry protocol as the collision-free table.
//
// Update semantics: insert-or-assign (last writer in arrival order wins for
// duplicate keys in the same round). Enquiry returns a found flag per key.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/flat_hash.hpp"  // mix_key
#include "mp/collectives.hpp"
#include "mp/comm.hpp"
#include "util/memory_meter.hpp"

namespace scalparc::core {

template <mp::WireType V>
class DistributedChainedHashTable {
 public:
  struct Update {
    std::int64_t key = 0;
    V value{};
  };
  struct Lookup {
    V value{};
    bool found = false;
  };

  // Collective; all ranks must pass identical arguments. `num_buckets`
  // trades chain length against memory, as in any chained table.
  DistributedChainedHashTable(mp::Comm& comm, std::uint64_t num_buckets)
      : comm_(comm), num_buckets_(num_buckets) {
    if (num_buckets == 0) {
      throw std::invalid_argument(
          "DistributedChainedHashTable: need at least one bucket");
    }
    block_ = (num_buckets + static_cast<std::uint64_t>(comm.size()) - 1) /
             static_cast<std::uint64_t>(comm.size());
    buckets_.resize(local_size());
    mem_ = util::ScopedAllocation(comm.meter(), util::MemCategory::kNodeTable,
                                  local_size() * sizeof(Bucket));
  }

  std::uint64_t num_buckets() const { return num_buckets_; }

  int owner_of(std::int64_t key) const {
    return static_cast<int>(bucket_of(key) / block_);
  }
  std::uint64_t bucket_of(std::int64_t key) const {
    return mix_key(static_cast<std::uint64_t>(key)) % num_buckets_;
  }

  std::uint64_t local_size() const {
    const auto rank = static_cast<std::uint64_t>(comm_.rank());
    const std::uint64_t begin = rank * block_;
    if (begin >= num_buckets_) return 0;
    return std::min(block_, num_buckets_ - begin);
  }

  // Number of entries chained on this rank (for load diagnostics).
  std::size_t local_entries() const {
    std::size_t total = 0;
    for (const Bucket& bucket : buckets_) total += bucket.size();
    return total;
  }

  // Collective bulk insert-or-assign, blocked like the node table's update.
  void update(std::span<const Update> updates, std::int64_t block_limit = 0) {
    if (block_limit < 0) {
      throw std::invalid_argument("ChainedHashTable::update: bad block limit");
    }
    if (block_limit == 0) {
      apply_round(updates);
      return;
    }
    const auto limit = static_cast<std::uint64_t>(block_limit);
    const std::uint64_t my_rounds = (updates.size() + limit - 1) / limit;
    const std::uint64_t rounds = mp::allreduce_value(comm_, my_rounds, mp::MaxOp{});
    for (std::uint64_t r = 0; r < rounds; ++r) {
      const std::uint64_t begin = std::min<std::uint64_t>(r * limit, updates.size());
      const std::uint64_t end = std::min<std::uint64_t>(begin + limit, updates.size());
      apply_round(updates.subspan(begin, end - begin));
    }
  }

  // Collective bulk lookup; results ordered like `keys`.
  std::vector<Lookup> enquire(std::span<const std::int64_t> keys) {
    const int p = comm_.size();
    std::vector<std::vector<std::int64_t>> enquiry(static_cast<std::size_t>(p));
    std::vector<int> destination(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const int dst = owner_of(keys[i]);
      destination[i] = dst;
      // With chaining the owner needs the full key, not just the bucket
      // index, to walk the chain.
      enquiry[static_cast<std::size_t>(dst)].push_back(keys[i]);
    }
    comm_.add_work(static_cast<double>(keys.size()));

    std::vector<std::vector<std::int64_t>> key_buffers =
        mp::alltoallv(comm_, enquiry);
    std::vector<std::vector<Lookup>> value_buffers(static_cast<std::size_t>(p));
    for (std::size_t src = 0; src < key_buffers.size(); ++src) {
      value_buffers[src].reserve(key_buffers[src].size());
      for (const std::int64_t key : key_buffers[src]) {
        value_buffers[src].push_back(lookup_local(key));
      }
      comm_.add_work(static_cast<double>(key_buffers[src].size()));
    }
    std::vector<std::vector<Lookup>> result_buffers =
        mp::alltoallv(comm_, value_buffers);

    std::vector<std::size_t> cursor(static_cast<std::size_t>(p), 0);
    std::vector<Lookup> out;
    out.reserve(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const auto dst = static_cast<std::size_t>(destination[i]);
      out.push_back(result_buffers[dst][cursor[dst]++]);
    }
    return out;
  }

 private:
  struct Entry {
    std::int64_t key;
    V value;
  };
  using Bucket = std::vector<Entry>;

  struct WireUpdate {
    std::int64_t key = 0;
    V value{};
  };

  Lookup lookup_local(std::int64_t key) const {
    const std::uint64_t slot = bucket_of(key) - static_cast<std::uint64_t>(comm_.rank()) * block_;
    for (const Entry& entry : buckets_[slot]) {
      if (entry.key == key) return Lookup{entry.value, true};
    }
    return Lookup{};
  }

  void apply_round(std::span<const Update> round) {
    const int p = comm_.size();
    std::vector<std::vector<WireUpdate>> sendbufs(static_cast<std::size_t>(p));
    for (const Update& u : round) {
      sendbufs[static_cast<std::size_t>(owner_of(u.key))].push_back(
          WireUpdate{u.key, u.value});
    }
    comm_.add_work(static_cast<double>(round.size()));
    std::vector<std::vector<WireUpdate>> received = mp::alltoallv(comm_, sendbufs);
    std::size_t chained_before = chain_bytes_;
    for (const auto& buf : received) {
      for (const WireUpdate& w : buf) {
        const std::uint64_t slot =
            bucket_of(w.key) - static_cast<std::uint64_t>(comm_.rank()) * block_;
        Bucket& bucket = buckets_[slot];
        bool assigned = false;
        for (Entry& entry : bucket) {
          if (entry.key == w.key) {
            entry.value = w.value;
            assigned = true;
            break;
          }
        }
        if (!assigned) {
          bucket.push_back(Entry{w.key, w.value});
          chain_bytes_ += sizeof(Entry);
        }
      }
      comm_.add_work(static_cast<double>(buf.size()));
    }
    if (chain_bytes_ != chained_before) {
      mem_.resize(local_size() * sizeof(Bucket) + chain_bytes_);
    }
  }

  mp::Comm& comm_;
  std::uint64_t num_buckets_;
  std::uint64_t block_ = 0;
  std::vector<Bucket> buckets_;
  std::size_t chain_bytes_ = 0;
  util::ScopedAllocation mem_;
};

}  // namespace scalparc::core

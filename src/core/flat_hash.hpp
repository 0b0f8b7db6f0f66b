// Distributed hash table with flat open addressing.
//
// Functional twin of DistributedChainedHashTable (same key->owner mapping,
// same buffered all-to-all update/enquiry protocol, same insert-or-assign
// semantics), with the owner-side storage redesigned for the memory system:
//
//   * one flat slot array per rank instead of a vector-of-vectors of chains
//     — probing is pointer-free linear scanning within a cache line instead
//     of chasing a heap allocation per bucket;
//   * incoming update/enquiry rounds are processed in small probe groups:
//     the home slots of the next group are software-prefetched while the
//     current group probes, hiding the (random) first-touch miss that
//     dominates hash table throughput at scale.
//
// The local table grows by doubling at 70% load, so bulk updates stay O(1)
// amortized per key regardless of the constructor's bucket hint.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "mp/collectives.hpp"
#include "mp/comm.hpp"
#include "util/memory_meter.hpp"

namespace scalparc::core {

// 64-bit finalizer (SplitMix64's mixer): scatters arbitrary keys uniformly
// over the bucket space.
constexpr std::uint64_t mix_key(std::uint64_t key) {
  key ^= key >> 30;
  key *= 0xBF58476D1CE4E5B9ULL;
  key ^= key >> 27;
  key *= 0x94D049BB133111EBULL;
  key ^= key >> 31;
  return key;
}

template <mp::WireType V>
class DistributedFlatHashTable {
 public:
  struct Update {
    std::int64_t key = 0;
    V value{};
  };
  struct Lookup {
    V value{};
    bool found = false;
  };

  // How many incoming keys probe concurrently: slots for group g+1 are
  // prefetched while group g probes.
  static constexpr std::size_t kProbeGroup = 8;

  // Collective; all ranks must pass identical arguments. `num_buckets` fixes
  // the key->owner mapping (as in the chained table) and seeds the local
  // capacity; the local table rehashes independently as it fills.
  DistributedFlatHashTable(mp::Comm& comm, std::uint64_t num_buckets)
      : comm_(comm), num_buckets_(num_buckets) {
    if (num_buckets == 0) {
      throw std::invalid_argument(
          "DistributedFlatHashTable: need at least one bucket");
    }
    block_ = (num_buckets + static_cast<std::uint64_t>(comm.size()) - 1) /
             static_cast<std::uint64_t>(comm.size());
    std::size_t capacity = 16;
    while (capacity < block_ && capacity < (std::size_t{1} << 20)) capacity *= 2;
    slots_.resize(capacity);
    full_.assign(capacity, 0);
    mem_ = util::ScopedAllocation(comm.meter(), util::MemCategory::kNodeTable,
                                  capacity * (sizeof(Slot) + 1));
  }

  ~DistributedFlatHashTable() { publish_metrics(); }
  DistributedFlatHashTable(const DistributedFlatHashTable&) = delete;
  DistributedFlatHashTable& operator=(const DistributedFlatHashTable&) =
      delete;

  std::uint64_t num_buckets() const { return num_buckets_; }

  int owner_of(std::int64_t key) const {
    return static_cast<int>(bucket_of(key) / block_);
  }
  std::uint64_t bucket_of(std::int64_t key) const {
    return mix_key(static_cast<std::uint64_t>(key)) % num_buckets_;
  }

  std::size_t local_entries() const { return size_; }
  std::size_t local_capacity() const { return slots_.size(); }

  // Collective bulk insert-or-assign, blocked like the node table's update.
  void update(std::span<const Update> updates, std::int64_t block_limit = 0) {
    if (block_limit < 0) {
      throw std::invalid_argument("FlatHashTable::update: bad block limit");
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
      enquiry[static_cast<std::size_t>(dst)].push_back(keys[i]);
    }
    comm_.add_work(static_cast<double>(keys.size()));

    std::vector<std::vector<std::int64_t>> key_buffers =
        mp::alltoallv(comm_, enquiry);
    std::vector<std::vector<Lookup>> value_buffers(static_cast<std::size_t>(p));
    for (std::size_t src = 0; src < key_buffers.size(); ++src) {
      lookup_local_batch(key_buffers[src], value_buffers[src]);
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
  struct Slot {
    std::int64_t key = 0;
    V value{};
  };

  struct WireUpdate {
    std::int64_t key = 0;
    V value{};
  };

  std::size_t home_of(std::int64_t key) const {
    return static_cast<std::size_t>(mix_key(static_cast<std::uint64_t>(key))) &
           (slots_.size() - 1);
  }

  void prefetch_slot(std::size_t slot) const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(slots_.data() + slot, 0, 1);
    __builtin_prefetch(full_.data() + slot, 0, 1);
#else
    (void)slot;
#endif
  }

  // Batched lookup with probe-group prefetching: while group g probes, the
  // home slots of group g+1 are already on their way into cache.
  void lookup_local_batch(std::span<const std::int64_t> keys,
                          std::vector<Lookup>& out) const {
    out.resize(keys.size());
    std::size_t homes[kProbeGroup];
    std::size_t next_homes[kProbeGroup];
    const std::size_t first = std::min(kProbeGroup, keys.size());
    for (std::size_t i = 0; i < first; ++i) {
      homes[i] = home_of(keys[i]);
      prefetch_slot(homes[i]);
    }
    for (std::size_t base = 0; base < keys.size(); base += kProbeGroup) {
      const std::size_t count = std::min(kProbeGroup, keys.size() - base);
      const std::size_t next_base = base + kProbeGroup;
      const std::size_t next_count =
          next_base < keys.size()
              ? std::min(kProbeGroup, keys.size() - next_base)
              : 0;
      for (std::size_t i = 0; i < next_count; ++i) {
        next_homes[i] = home_of(keys[next_base + i]);
        prefetch_slot(next_homes[i]);
      }
      for (std::size_t i = 0; i < count; ++i) {
        out[base + i] = probe(keys[base + i], homes[i]);
      }
      for (std::size_t i = 0; i < next_count; ++i) homes[i] = next_homes[i];
    }
  }

  Lookup probe(std::int64_t key, std::size_t home) const {
    const std::size_t mask = slots_.size() - 1;
    std::uint64_t length = 1;
    ++lookups_;
    for (std::size_t s = home;; s = (s + 1) & mask, ++length) {
      if (!full_[s]) {
        probe_lengths_.observe(length);
        return Lookup{};
      }
      if (slots_[s].key == key) {
        probe_lengths_.observe(length);
        return Lookup{slots_[s].value, true};
      }
    }
  }

  void insert_or_assign(std::int64_t key, const V& value) {
    if ((size_ + 1) * 10 > slots_.size() * 7) grow();
    const std::size_t mask = slots_.size() - 1;
    std::uint64_t length = 1;
    ++updates_;
    for (std::size_t s = home_of(key);; s = (s + 1) & mask, ++length) {
      if (!full_[s]) {
        full_[s] = 1;
        slots_[s] = Slot{key, value};
        ++size_;
        probe_lengths_.observe(length);
        return;
      }
      if (slots_[s].key == key) {
        slots_[s].value = value;
        probe_lengths_.observe(length);
        return;
      }
    }
  }

  void grow() {
    ++grows_;
    std::vector<Slot> old_slots = std::move(slots_);
    std::vector<std::uint8_t> old_full = std::move(full_);
    const std::size_t capacity = old_slots.size() * 2;
    slots_.assign(capacity, Slot{});
    full_.assign(capacity, 0);
    size_ = 0;
    mem_.resize(capacity * (sizeof(Slot) + 1));
    for (std::size_t s = 0; s < old_slots.size(); ++s) {
      if (old_full[s]) insert_or_assign(old_slots[s].key, old_slots[s].value);
    }
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
    for (const auto& buf : received) {
      // Prefetch a group ahead; insert_or_assign may rehash, which
      // invalidates prefetched addresses but not correctness, and rehashes
      // are O(log n) per table lifetime.
      for (std::size_t base = 0; base < buf.size(); base += kProbeGroup) {
        const std::size_t count = std::min(kProbeGroup, buf.size() - base);
        const std::size_t next_base = base + kProbeGroup;
        const std::size_t next_count =
            next_base < buf.size() ? std::min(kProbeGroup, buf.size() - next_base)
                                   : 0;
        for (std::size_t i = 0; i < next_count; ++i) {
          prefetch_slot(home_of(buf[next_base + i].key));
        }
        for (std::size_t i = 0; i < count; ++i) {
          insert_or_assign(buf[base + i].key, buf[base + i].value);
        }
      }
      comm_.add_work(static_cast<double>(buf.size()));
    }
  }

  // Flushes the table's probe telemetry into the calling rank's bound
  // metrics snapshot (no-op without one). Counters reset afterwards so a
  // second flush — e.g. destructor after an explicit call — adds nothing.
  void publish_metrics() {
    mp::MetricsSnapshot* sink = mp::metrics_sink();
    if (sink == nullptr) return;
    if (probe_lengths_.count > 0) {
      sink->merge_histogram("hash.probe_length", probe_lengths_);
    }
    if (lookups_ > 0) sink->add("hash.lookups", static_cast<double>(lookups_));
    if (updates_ > 0) sink->add("hash.updates", static_cast<double>(updates_));
    if (grows_ > 0) sink->add("hash.grows", static_cast<double>(grows_));
    if (lookups_ > 0 || updates_ > 0) {
      sink->gauge_max("hash.occupancy_pct",
                      100.0 * static_cast<double>(size_) /
                          static_cast<double>(slots_.size()));
      sink->gauge_max("hash.local_capacity",
                      static_cast<double>(slots_.size()));
    }
    probe_lengths_ = mp::Histogram{};
    lookups_ = updates_ = grows_ = 0;
  }

  mp::Comm& comm_;
  std::uint64_t num_buckets_;
  std::uint64_t block_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint8_t> full_;
  std::size_t size_ = 0;
  util::ScopedAllocation mem_;
  // Probe telemetry: lengths include the terminal slot, so a hit in the home
  // slot observes 1. `mutable` because enquire-side probing is const.
  mutable mp::Histogram probe_lengths_;
  mutable std::uint64_t lookups_ = 0;
  std::uint64_t updates_ = 0;
  std::uint64_t grows_ = 0;
};

}  // namespace scalparc::core

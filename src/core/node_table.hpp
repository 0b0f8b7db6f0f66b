// The parallel hashing paradigm (§3.3.1) and the distributed node table
// built on it (§3.3.2).
//
// DistributedHashTable<V> is the reusable paradigm: a table of `num_keys`
// values block-distributed over the ranks with the collision-free hash
//   h(key) = (key div B, key mod B),  B = ceil(num_keys / p),
// supporting bulk *update* (scatter (key, value) pairs to owners with one
// all-to-all personalized exchange per block round) and bulk *enquiry*
// (scatter keys, owners look up, a second all-to-all returns the values in
// the caller's original key order). Updates can be blocked into rounds of at
// most `block` entries per rank so that staging buffers never exceed O(N/p)
// memory — the mechanism that keeps ScalParC memory-scalable even when one
// rank must send far more than N/p updates.
//
// NodeTable specializes the table for ScalParC: the value is the child slot
// a record moves to in the current level, plus an epoch stamp so that an
// enquiry for a record that was not updated this level is detected as a
// protocol violation instead of silently returning stale data.
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

template <mp::WireType V>
class DistributedHashTable {
 public:
  struct Update {
    std::int64_t key = 0;
    V value{};
  };

  // Collective: all ranks construct with identical arguments.
  DistributedHashTable(mp::Comm& comm, std::uint64_t num_keys, V initial)
      : comm_(comm),
        num_keys_(num_keys),
        block_((num_keys + static_cast<std::uint64_t>(comm.size()) - 1) /
               static_cast<std::uint64_t>(comm.size())) {
    // Last rank may own fewer (or zero) live slots; allocate the full block
    // everywhere for the collision-free index arithmetic.
    const std::uint64_t local = local_size();
    local_values_.assign(local, initial);
    mem_ = util::ScopedAllocation(comm.meter(), util::MemCategory::kNodeTable,
                                  local * sizeof(V));
  }

  std::uint64_t num_keys() const { return num_keys_; }
  std::uint64_t block() const { return block_; }

  int owner_of(std::int64_t key) const {
    check_key(key);
    return block_ == 0 ? 0
                       : static_cast<int>(static_cast<std::uint64_t>(key) / block_);
  }
  std::uint64_t slot_of(std::int64_t key) const {
    check_key(key);
    return block_ == 0 ? 0 : static_cast<std::uint64_t>(key) % block_;
  }

  std::uint64_t local_size() const {
    const auto rank = static_cast<std::uint64_t>(comm_.rank());
    const std::uint64_t begin = rank * block_;
    if (begin >= num_keys_) return 0;
    return std::min(block_, num_keys_ - begin);
  }

  // Collective bulk update. `updates` may be empty on some ranks. When
  // `block_limit` > 0, each rank sends at most that many updates per
  // all-to-all round; every rank participates in the globally maximal number
  // of rounds. block_limit == 0 sends everything in one round.
  void update(std::span<const Update> updates, std::int64_t block_limit = 0);

  // Collective bulk enquiry: returns values ordered like `keys`.
  std::vector<V> enquire(std::span<const std::int64_t> keys);

 private:
  struct WireUpdate {
    std::uint64_t slot = 0;
    V value{};
  };

  void check_key(std::int64_t key) const {
    if (key < 0 || static_cast<std::uint64_t>(key) >= num_keys_) {
      throw std::out_of_range("DistributedHashTable: key out of range");
    }
  }

  // Owner-side loops touch local slots in the senders' arrival order —
  // effectively random — so each access is a likely cache miss. Both loops
  // below process requests in groups of kPrefetchGroup, issuing software
  // prefetches for the next group's slots while the current group executes.
  static constexpr std::size_t kPrefetchGroup = 8;
  void prefetch_slot(std::uint64_t slot) const {
#if defined(__GNUC__) || defined(__clang__)
    if (slot < local_values_.size()) {
      __builtin_prefetch(local_values_.data() + slot, 0, 1);
    }
#else
    (void)slot;
#endif
  }

  void apply_round(std::span<const Update> round);

  mp::Comm& comm_;
  std::uint64_t num_keys_;
  std::uint64_t block_;
  std::vector<V> local_values_;
  util::ScopedAllocation mem_;
};

// ---------------------------------------------------------------------------

struct NodeTableEntry {
  std::int32_t child = -1;
  std::uint32_t epoch = 0;
};

class NodeTable {
 public:
  NodeTable(mp::Comm& comm, std::uint64_t num_records)
      : table_(comm, num_records, NodeTableEntry{}) {}

  // Starts a new induction level; collective only by convention (no
  // communication happens here).
  void begin_level() { ++epoch_; }
  std::uint32_t epoch() const { return epoch_; }

  // Collective: scatter this level's (rid -> child slot) assignments.
  void update(std::span<const std::int64_t> rids,
              std::span<const std::int32_t> children,
              std::int64_t block_limit);

  // Collective: child slots for `rids`, in order. Throws std::logic_error if
  // any rid was not updated in the current epoch (stale enquiry).
  std::vector<std::int32_t> enquire(std::span<const std::int64_t> rids);

  std::uint64_t block() const { return table_.block(); }
  const DistributedHashTable<NodeTableEntry>& table() const { return table_; }

 private:
  DistributedHashTable<NodeTableEntry> table_;
  std::uint32_t epoch_ = 0;
};

// ---------------------------------------------------------------------------
// Template implementation.
// ---------------------------------------------------------------------------

template <mp::WireType V>
void DistributedHashTable<V>::apply_round(std::span<const Update> round) {
  const int p = comm_.size();
  std::vector<std::vector<WireUpdate>> sendbufs(static_cast<std::size_t>(p));
  for (const Update& u : round) {
    const int dst = owner_of(u.key);
    sendbufs[static_cast<std::size_t>(dst)].push_back(
        WireUpdate{slot_of(u.key), u.value});
  }
  comm_.add_work(static_cast<double>(round.size()));
  std::vector<std::vector<WireUpdate>> received = mp::alltoallv(comm_, sendbufs);
  for (const auto& buf : received) {
    for (std::size_t base = 0; base < buf.size(); base += kPrefetchGroup) {
      const std::size_t end = std::min(base + kPrefetchGroup, buf.size());
      const std::size_t next_end = std::min(end + kPrefetchGroup, buf.size());
      for (std::size_t i = end; i < next_end; ++i) prefetch_slot(buf[i].slot);
      for (std::size_t i = base; i < end; ++i) {
        const WireUpdate& w = buf[i];
        if (w.slot >= local_values_.size()) {
          throw std::logic_error("DistributedHashTable: slot out of range");
        }
        local_values_[w.slot] = w.value;
      }
    }
    comm_.add_work(static_cast<double>(buf.size()));
  }
}

template <mp::WireType V>
void DistributedHashTable<V>::update(std::span<const Update> updates,
                                     std::int64_t block_limit) {
  if (block_limit < 0) {
    throw std::invalid_argument("DistributedHashTable::update: bad block limit");
  }
  if (block_limit == 0) {
    // One round; all ranks agree because block_limit is collective-uniform.
    apply_round(updates);
    return;
  }
  const std::uint64_t limit = static_cast<std::uint64_t>(block_limit);
  const std::uint64_t my_rounds =
      (updates.size() + limit - 1) / limit;  // 0 if updates empty
  const std::uint64_t rounds =
      mp::allreduce_value(comm_, my_rounds, mp::MaxOp{});
  for (std::uint64_t r = 0; r < rounds; ++r) {
    const std::uint64_t begin = std::min<std::uint64_t>(r * limit, updates.size());
    const std::uint64_t end = std::min<std::uint64_t>(begin + limit, updates.size());
    apply_round(updates.subspan(begin, end - begin));
  }
}

template <mp::WireType V>
std::vector<V> DistributedHashTable<V>::enquire(
    std::span<const std::int64_t> keys) {
  const int p = comm_.size();
  // Enquiry buffers: the slot indices each owner should look up, in the
  // order we encounter them; `destination[i]` remembers where key i went so
  // the returned values can be read back in order.
  std::vector<std::vector<std::uint64_t>> enquiry(static_cast<std::size_t>(p));
  std::vector<int> destination(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const int dst = owner_of(keys[i]);
    destination[i] = dst;
    enquiry[static_cast<std::size_t>(dst)].push_back(slot_of(keys[i]));
  }
  comm_.add_work(static_cast<double>(keys.size()));

  std::vector<std::vector<std::uint64_t>> index_buffers =
      mp::alltoallv(comm_, enquiry);

  // Owner-side lookup fills the intermediate value buffers.
  std::vector<std::vector<V>> value_buffers(static_cast<std::size_t>(p));
  for (std::size_t src = 0; src < index_buffers.size(); ++src) {
    const std::vector<std::uint64_t>& slots = index_buffers[src];
    value_buffers[src].resize(slots.size());
    for (std::size_t base = 0; base < slots.size(); base += kPrefetchGroup) {
      const std::size_t end = std::min(base + kPrefetchGroup, slots.size());
      const std::size_t next_end = std::min(end + kPrefetchGroup, slots.size());
      for (std::size_t i = end; i < next_end; ++i) prefetch_slot(slots[i]);
      for (std::size_t i = base; i < end; ++i) {
        if (slots[i] >= local_values_.size()) {
          throw std::logic_error("DistributedHashTable: enquiry slot out of range");
        }
        value_buffers[src][i] = local_values_[slots[i]];
      }
    }
    comm_.add_work(static_cast<double>(slots.size()));
  }

  std::vector<std::vector<V>> result_buffers = mp::alltoallv(comm_, value_buffers);

  // Read back in the original key order.
  std::vector<std::size_t> cursor(static_cast<std::size_t>(p), 0);
  std::vector<V> out;
  out.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto dst = static_cast<std::size_t>(destination[i]);
    out.push_back(result_buffers[dst][cursor[dst]++]);
  }
  return out;
}

}  // namespace scalparc::core

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
// Only keys another rank owns travel: a rank applies updates to, and
// answers enquiries for, its own block in place. On the wire a key is its
// uint32 slot in the owner's block, so a table holds fewer than 2^32 keys
// (checked at construction). The owner applies an update and answers an
// enquiry through caller-supplied functions, so the wire value and the
// answer may be narrower than the stored value V.
//
// NodeTable specializes the table for ScalParC: the value is the child slot
// a record moves to in the current level, plus an epoch stamp so that an
// enquiry for a record that was not updated this level is detected as a
// protocol violation instead of silently returning stale data. An update
// moves 8 bytes (slot, child; the owner stamps the epoch) and an enquiry 4
// bytes each way (slot out, child back).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "mp/collectives.hpp"
#include "mp/comm.hpp"
#include "util/memory_meter.hpp"

namespace scalparc::core {

template <mp::WireType V>
class DistributedHashTable {
 public:
  // Keys and slots travel as uint32.
  static constexpr std::uint64_t kMaxKeys =
      std::numeric_limits<std::uint32_t>::max();

  // Collective: all ranks construct with identical arguments. Throws
  // std::length_error, before any storage is sized, if num_keys > kMaxKeys.
  DistributedHashTable(mp::Comm& comm, std::uint64_t num_keys, V initial)
      : comm_(comm),
        num_keys_(num_keys),
        block_((num_keys + static_cast<std::uint64_t>(comm.size()) - 1) /
               static_cast<std::uint64_t>(comm.size())) {
    if (num_keys_ > kMaxKeys) {
      throw std::length_error(
          "DistributedHashTable: " + std::to_string(num_keys_) +
          " keys; the wire format addresses at most 2^32 - 1");
    }
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
    return static_cast<int>(locate(key).owner);
  }
  std::uint64_t slot_of(std::int64_t key) const { return locate(key).slot; }

  std::uint64_t local_size() const {
    const auto rank = static_cast<std::uint64_t>(comm_.rank());
    const std::uint64_t begin = rank * block_;
    if (begin >= num_keys_) return 0;
    return std::min(block_, num_keys_ - begin);
  }

  // Collective bulk update: the owner of keys[i] applies
  // store(stored_value, values[i]). Each sender's updates are applied in its
  // order (owner-local ones in place, before the exchange). `keys` and
  // `values` may be empty on some ranks. When `block_limit` > 0, each rank
  // sends at most that many updates per all-to-all round; every rank
  // participates in the globally maximal number of rounds. block_limit == 0
  // sends everything in one round.
  template <mp::WireType W, typename Store>
  void update(std::span<const std::int64_t> keys, std::span<const W> values,
              std::int64_t block_limit, Store store);

  // Plain update: stores values[i] at keys[i].
  void update(std::span<const std::int64_t> keys, std::span<const V> values,
              std::int64_t block_limit = 0) {
    update<V>(keys, values, block_limit,
              [](V& stored, const V& value) { stored = value; });
  }

  // Collective bulk enquiry: answer(stored value of keys[i]) for every i, in
  // order. The owner computes the answer, so only it crosses the wire.
  template <typename Answer>
  std::vector<std::invoke_result_t<Answer&, const V&>> enquire(
      std::span<const std::int64_t> keys, Answer answer);

  // Plain enquiry: the stored values of `keys`, in order.
  std::vector<V> enquire(std::span<const std::int64_t> keys) {
    return enquire(keys, [](const V& stored) { return stored; });
  }

 private:
  template <mp::WireType W>
  struct WireUpdate {
    std::uint32_t slot = 0;
    W value{};
  };

  struct Location {
    std::uint32_t owner = 0;
    std::uint32_t slot = 0;
  };

  // h(key) with one division; key < num_keys_ <= kMaxKeys, so the
  // arithmetic fits in 32 bits.
  Location locate(std::int64_t key) const {
    if (key < 0 || static_cast<std::uint64_t>(key) >= num_keys_) {
      throw std::out_of_range("DistributedHashTable: key out of range");
    }
    const auto k = static_cast<std::uint32_t>(key);
    const auto block = static_cast<std::uint32_t>(block_);
    const std::uint32_t owner = k / block;
    return Location{owner, k - owner * block};
  }

  // Owner-side loops touch local slots in the senders' arrival order —
  // effectively random — so each access is a likely cache miss. The loops
  // over received slots process them in groups of kPrefetchGroup, issuing
  // software prefetches for the next group's slots while the current group
  // executes.
  static constexpr std::size_t kPrefetchGroup = 8;
  void prefetch_slot(std::uint32_t slot) const {
#if defined(__GNUC__) || defined(__clang__)
    if (slot < local_values_.size()) {
      __builtin_prefetch(local_values_.data() + slot, 0, 1);
    }
#else
    (void)slot;
#endif
  }

  // Calls visit(i, slot_of(i)) for i in [0, n): the slots a peer sent,
  // each checked against this rank's block.
  template <typename SlotOf, typename Visit>
  void for_each_received(std::size_t n, SlotOf slot_of, Visit visit) const;

  template <mp::WireType W, typename Store>
  void apply_round(std::span<const std::int64_t> keys,
                   std::span<const W> values, Store& store);

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
  // The owner's answer for a record not assigned a child this level.
  static constexpr std::int32_t kStaleChild =
      std::numeric_limits<std::int32_t>::min();

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
template <typename SlotOf, typename Visit>
void DistributedHashTable<V>::for_each_received(std::size_t n, SlotOf slot_of,
                                                Visit visit) const {
  for (std::size_t base = 0; base < n; base += kPrefetchGroup) {
    const std::size_t end = std::min(base + kPrefetchGroup, n);
    const std::size_t next_end = std::min(end + kPrefetchGroup, n);
    for (std::size_t i = end; i < next_end; ++i) prefetch_slot(slot_of(i));
    for (std::size_t i = base; i < end; ++i) {
      const std::uint32_t slot = slot_of(i);
      if (slot >= local_values_.size()) {
        throw std::logic_error("DistributedHashTable: slot out of range");
      }
      visit(i, slot);
    }
  }
}

template <mp::WireType V>
template <mp::WireType W, typename Store>
void DistributedHashTable<V>::apply_round(std::span<const std::int64_t> keys,
                                          std::span<const W> values,
                                          Store& store) {
  const int p = comm_.size();
  const auto me = static_cast<std::uint32_t>(comm_.rank());
  std::vector<std::vector<WireUpdate<W>>> sendbufs(static_cast<std::size_t>(p));
  std::size_t local = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const Location at = locate(keys[i]);
    if (at.owner == me) {
      store(local_values_[at.slot], values[i]);
      ++local;
    } else {
      sendbufs[at.owner].push_back(WireUpdate<W>{at.slot, values[i]});
    }
  }
  comm_.add_work(static_cast<double>(keys.size() + local));
  const std::vector<std::vector<WireUpdate<W>>> received =
      mp::alltoallv(comm_, std::move(sendbufs));
  for (const std::vector<WireUpdate<W>>& buf : received) {
    for_each_received(
        buf.size(), [&](std::size_t i) { return buf[i].slot; },
        [&](std::size_t i, std::uint32_t slot) {
          store(local_values_[slot], buf[i].value);
        });
    comm_.add_work(static_cast<double>(buf.size()));
  }
}

template <mp::WireType V>
template <mp::WireType W, typename Store>
void DistributedHashTable<V>::update(std::span<const std::int64_t> keys,
                                     std::span<const W> values,
                                     std::int64_t block_limit, Store store) {
  if (keys.size() != values.size()) {
    throw std::invalid_argument(
        "DistributedHashTable::update: key/value size mismatch");
  }
  if (block_limit < 0) {
    throw std::invalid_argument("DistributedHashTable::update: bad block limit");
  }
  if (block_limit == 0) {
    // One round; all ranks agree because block_limit is collective-uniform.
    apply_round(keys, values, store);
    return;
  }
  const std::uint64_t limit = static_cast<std::uint64_t>(block_limit);
  const std::uint64_t my_rounds =
      (keys.size() + limit - 1) / limit;  // 0 if no updates
  const std::uint64_t rounds =
      mp::allreduce_value(comm_, my_rounds, mp::MaxOp{});
  for (std::uint64_t r = 0; r < rounds; ++r) {
    const std::uint64_t begin = std::min<std::uint64_t>(r * limit, keys.size());
    const std::uint64_t end = std::min<std::uint64_t>(begin + limit, keys.size());
    apply_round(keys.subspan(begin, end - begin),
                values.subspan(begin, end - begin), store);
  }
}

template <mp::WireType V>
template <typename Answer>
std::vector<std::invoke_result_t<Answer&, const V&>>
DistributedHashTable<V>::enquire(std::span<const std::int64_t> keys,
                                 Answer answer) {
  using R = std::invoke_result_t<Answer&, const V&>;
  static_assert(mp::WireType<R>, "enquiry answers must be wire types");
  const int p = comm_.size();
  const auto me = static_cast<std::uint32_t>(comm_.rank());
  const auto block = static_cast<std::uint32_t>(block_);

  // Pass 1: each key's owner (its one division) and the per-owner counts,
  // so the enquiry buffers are sized exactly.
  std::vector<std::uint32_t> owner(keys.size());
  std::vector<std::size_t> count(static_cast<std::size_t>(p), 0);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    owner[i] = locate(keys[i]).owner;
    ++count[owner[i]];
  }
  // Pass 2: answer owner-local keys in place; pack the slots of the others
  // per owner, in key order.
  std::vector<R> out(keys.size());
  std::vector<std::vector<std::uint32_t>> enquiry(static_cast<std::size_t>(p));
  for (std::uint32_t d = 0; d < static_cast<std::uint32_t>(p); ++d) {
    if (d != me) enquiry[d].reserve(count[d]);
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint32_t slot =
        static_cast<std::uint32_t>(keys[i]) - owner[i] * block;
    if (owner[i] == me) {
      out[i] = answer(local_values_[slot]);
    } else {
      enquiry[owner[i]].push_back(slot);
    }
  }
  const std::size_t local = count[me];
  comm_.add_work(static_cast<double>(keys.size() + local));

  // Owner side: answer every peer's slots.
  std::vector<std::vector<std::uint32_t>> slots =
      mp::alltoallv(comm_, std::move(enquiry));
  std::vector<std::vector<R>> replies(static_cast<std::size_t>(p));
  for (std::size_t src = 0; src < slots.size(); ++src) {
    std::vector<R>& reply = replies[src];
    reply.resize(slots[src].size());
    const std::vector<std::uint32_t>& asked = slots[src];
    for_each_received(
        asked.size(), [&](std::size_t i) { return asked[i]; },
        [&](std::size_t i, std::uint32_t slot) {
          reply[i] = answer(local_values_[slot]);
        });
    comm_.add_work(static_cast<double>(reply.size()));
  }
  slots = {};
  const std::vector<std::vector<R>> answers =
      mp::alltoallv(comm_, std::move(replies));

  // Read the remote answers back in key order.
  for (std::uint32_t d = 0; d < static_cast<std::uint32_t>(p); ++d) {
    if (d != me && answers[d].size() != count[d]) {
      throw std::logic_error(
          "DistributedHashTable: enquiry answer count mismatch");
    }
  }
  std::vector<std::size_t> cursor(static_cast<std::size_t>(p), 0);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (owner[i] != me) out[i] = answers[owner[i]][cursor[owner[i]]++];
  }
  return out;
}

}  // namespace scalparc::core

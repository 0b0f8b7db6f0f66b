// Ablation A1: the parallel hashing paradigm in isolation (§3.3.1).
//
// The paper proposes the distributed-hash-table update/enquiry protocol as a
// reusable primitive ("can be used to parallelize other algorithms that
// require many concurrent updates to a large hash table"). This bench
// exercises it directly, outside tree induction:
//
//   part 1 — scaling: hash M keys into a table of M entries across p ranks,
//            then enquire all of them; report modeled time and per-rank
//            bytes. The paradigm is scalable as long as enough keys are
//            hashed at once (the paper's Theta(p^2) condition).
//   part 2 — blocked updates: the §3.3.2 memory-scalability device. One rank
//            sends ALL updates (worst-case skew); blocking bounds the
//            staging buffers at the cost of extra all-to-all rounds.
//
//   ./hash_paradigm [--keys N] [--procs 2,4,...] [--csv DIR]
#include <cstdio>

#include "bench_common.hpp"
#include "core/node_table.hpp"

int main(int argc, char** argv) {
  using namespace scalparc;
  const util::CliArgs args(argc, argv);
  const std::uint64_t keys = static_cast<std::uint64_t>(args.get_int("keys", 200000));
  const auto procs = args.get_int_list("procs", {2, 4, 8, 16, 32, 64});
  const auto model = mp::CostModel::cray_t3d();

  struct Value {
    std::int64_t payload = 0;
  };
  using Table = core::DistributedHashTable<Value>;

  bench::CsvWriter csv(args, "hash_paradigm.csv",
                       "phase,procs,block,modeled_seconds,max_mb_sent_per_rank,"
                       "peak_staging_mb_per_rank");

  std::printf("A1 part 1: update + enquire %llu keys across p ranks\n\n",
              static_cast<unsigned long long>(keys));
  std::printf("%6s %16s %16s\n", "procs", "modeled-time(s)", "MB sent/rank");
  for (const std::int64_t p : procs) {
    const auto result = mp::run_ranks(
        static_cast<int>(p), model, [&](mp::Comm& comm) {
          Table table(comm, keys, Value{});
          // Every rank updates its block-strided share of the keys with a
          // scrambled destination pattern (keys owned by everyone).
          std::vector<std::int64_t> update_keys;
          std::vector<Value> values;
          for (std::uint64_t k = static_cast<std::uint64_t>(comm.rank());
               k < keys; k += static_cast<std::uint64_t>(comm.size())) {
            update_keys.push_back(
                static_cast<std::int64_t>((k * 2654435761ULL) % keys));
            values.push_back(Value{static_cast<std::int64_t>(k)});
          }
          table.update(update_keys, values);
          std::vector<std::int64_t> enquiry;
          for (std::uint64_t k = static_cast<std::uint64_t>(comm.rank());
               k < keys; k += static_cast<std::uint64_t>(comm.size())) {
            enquiry.push_back(static_cast<std::int64_t>(k));
          }
          (void)table.enquire(enquiry);
        });
    const double mb =
        static_cast<double>(result.max_bytes_sent_per_rank()) / 1e6;
    std::printf("%6lld %16.4f %16.3f\n", static_cast<long long>(p),
                result.modeled_seconds, mb);
    csv.row("scaling,%lld,0,%.6f,%.6f,0", static_cast<long long>(p),
            result.modeled_seconds, mb);
  }

  std::printf("\nA1 part 2: blocked updates under worst-case skew (rank 0 sends all)\n\n");
  std::printf("%6s %10s %16s %22s\n", "procs", "block", "modeled-time(s)",
              "peak staging MB/rank");
  const std::uint64_t skew_keys = keys / 4;
  for (const std::int64_t p : {8LL, 32LL}) {
    for (const std::int64_t block :
         {std::int64_t{0}, static_cast<std::int64_t>(skew_keys / p),
          static_cast<std::int64_t>(skew_keys / (8 * p))}) {
      const auto result = mp::run_ranks(
          static_cast<int>(p), model, [&](mp::Comm& comm) {
            Table table(comm, skew_keys, Value{});
            std::vector<std::int64_t> update_keys;
            std::vector<Value> values;
            if (comm.rank() == 0) {
              for (std::uint64_t k = 0; k < skew_keys; ++k) {
                update_keys.push_back(static_cast<std::int64_t>(k));
                values.push_back(Value{static_cast<std::int64_t>(k)});
              }
            }
            table.update(update_keys, values, block);
          });
      std::size_t staging = 0;
      for (const auto& r : result.ranks) {
        staging = std::max(staging,
                           r.meter.peak_bytes(util::MemCategory::kCommBuffers));
      }
      std::printf("%6lld %10lld %16.4f %22.3f\n", static_cast<long long>(p),
                  static_cast<long long>(block), result.modeled_seconds,
                  static_cast<double>(staging) / 1e6);
      csv.row("blocked,%lld,%lld,%.6f,0,%.6f", static_cast<long long>(p),
              static_cast<long long>(block), result.modeled_seconds,
              static_cast<double>(staging) / 1e6);
    }
  }
  std::printf(
      "\nblock 0 = unblocked (one round, largest staging buffers); smaller\n"
      "blocks bound memory at the cost of extra all-to-all rounds — the\n"
      "memory/latency trade-off of §3.3.2.\n");
  std::printf("\nCSV written to %s\n", csv.path().c_str());
  return 0;
}

// Golden-digest suite: pins the exact bytes the trainer produces — the
// saved tree and every level-checkpoint file — across processor counts,
// split modes and recovery paths. Each cell is compared against a constant
// table of CRC-32 digests; a change that moves a single byte of a tree or a
// checkpoint in any cell fails here. The table is data, not a snapshot
// mechanism: a failing cell prints the digests it observed (and the
// per-file listing behind every level digest) so a deliberate format change
// can be reviewed file by file, but nothing rewrites the table.
//
// Every fault is injected deterministically: level-boundary kill plans and
// explicit CheckpointControls::rank_weights, never the wall-clock straggler
// detector, so each cell's bytes are a pure function of its inputs.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/scalparc.hpp"
#include "core/tree_io.hpp"
#include "data/synthetic.hpp"
#include "mp/fault.hpp"
#include "mp/runtime.hpp"
#include "util/crc32.hpp"

namespace scalparc {
namespace {

namespace fs = std::filesystem;

using core::SplitMode;

const mp::CostModel kZero = mp::CostModel::zero();

enum class Workload {
  // Continuous-heavy F2 records (the fault suites' workload): deep enough
  // for mid-run checkpoints at every processor count.
  kDeep,
  // Mixed 9-attribute F6 records: both list kinds and both split kinds.
  kMixed,
  // The mixed workload under binary-subset categorical splits and the
  // entropy criterion (the incremental scanner's non-gini fallback).
  kSubsetEntropy,
};

enum class Fault {
  kClean,       // checkpointed run, no fault
  kKillResume,  // rank killed at level 2, same world resumes
  kShrink,      // rank killed at level 2, survivors resume (re-tile)
  kGrow,        // rank killed at level 2, survivors + 2 joiners resume
  kRebalance,   // rank killed at level 2, weighted re-tile of the same world
};

struct Cell {
  Workload workload = Workload::kDeep;
  SplitMode mode = SplitMode::kExact;
  Fault fault = Fault::kClean;
  int p = 1;
};

const char* mode_name(SplitMode mode) {
  switch (mode) {
    case SplitMode::kExact: return "exact";
    case SplitMode::kHistogram: return "histogram";
    case SplitMode::kVoting: return "voting";
  }
  return "?";
}

const char* fault_name(Fault fault) {
  switch (fault) {
    case Fault::kClean: return "clean";
    case Fault::kKillResume: return "kill_resume";
    case Fault::kShrink: return "shrink";
    case Fault::kGrow: return "grow";
    case Fault::kRebalance: return "rebalance";
  }
  return "?";
}

std::string cell_name(const Cell& cell) {
  const char* workload = cell.workload == Workload::kDeep    ? "deep"
                         : cell.workload == Workload::kMixed ? "mixed"
                                                             : "subset_entropy";
  return std::string(workload) + "_" + mode_name(cell.mode) + "_" +
         fault_name(cell.fault) + "_p" + std::to_string(cell.p);
}

// The full matrix: p in {1,2,4,8} x every split mode x every fault on the
// deep workload (rebalance is exact-only: the quantized engines reject
// non-uniform rank_weights), plus clean mixed-workload cells at every p and
// one subset+entropy cell.
std::vector<Cell> all_cells() {
  std::vector<Cell> cells;
  for (const int p : {1, 2, 4, 8}) {
    for (const SplitMode mode :
         {SplitMode::kExact, SplitMode::kHistogram, SplitMode::kVoting}) {
      for (const Fault fault : {Fault::kClean, Fault::kKillResume,
                                Fault::kShrink, Fault::kGrow,
                                Fault::kRebalance}) {
        if (fault == Fault::kRebalance && mode != SplitMode::kExact) continue;
        cells.push_back(Cell{Workload::kDeep, mode, fault, p});
      }
    }
    cells.push_back(
        Cell{Workload::kMixed, SplitMode::kExact, Fault::kClean, p});
  }
  cells.push_back(
      Cell{Workload::kSubsetEntropy, SplitMode::kExact, Fault::kClean, 4});
  return cells;
}

struct Golden {
  const char* cell;
  const char* key;  // "tree", or a checkpoint level directory
  std::uint32_t crc;
};

// Key "tree" is the CRC-32 of the save_tree bytes. Key "level_<L>" is the
// CRC-32 of that checkpoint directory's listing: one "<relative path>
// <crc32 of the file>" line per file, sorted by path, so it changes when
// any file's bytes, name or presence changes.
constexpr Golden kGolden[] = {
    {"deep_exact_clean_p1", "level_0", 0x3f1e78ec},
    {"deep_exact_clean_p1", "level_1", 0x468fff79},
    {"deep_exact_clean_p1", "level_2", 0x71db4c4d},
    {"deep_exact_clean_p1", "level_3", 0x97e15ecf},
    {"deep_exact_clean_p1", "level_4", 0x4706da71},
    {"deep_exact_clean_p1", "tree", 0x8c59a327},
    {"deep_exact_kill_resume_p1", "level_0", 0x3f1e78ec},
    {"deep_exact_kill_resume_p1", "level_1", 0x468fff79},
    {"deep_exact_kill_resume_p1", "level_2", 0x71db4c4d},
    {"deep_exact_kill_resume_p1", "level_3", 0x97e15ecf},
    {"deep_exact_kill_resume_p1", "level_4", 0x4706da71},
    {"deep_exact_kill_resume_p1", "tree", 0x8c59a327},
    {"deep_exact_shrink_p1", "level_0", 0x3f1e78ec},
    {"deep_exact_shrink_p1", "level_1", 0x468fff79},
    {"deep_exact_shrink_p1", "level_2", 0x71db4c4d},
    {"deep_exact_shrink_p1", "level_3", 0x97e15ecf},
    {"deep_exact_shrink_p1", "level_4", 0x4706da71},
    {"deep_exact_shrink_p1", "tree", 0x8c59a327},
    {"deep_exact_grow_p1", "level_0", 0x3f1e78ec},
    {"deep_exact_grow_p1", "level_1", 0x468fff79},
    {"deep_exact_grow_p1", "level_2", 0x71db4c4d},
    {"deep_exact_grow_p1", "level_3", 0x97e15ecf},
    {"deep_exact_grow_p1", "level_4", 0x4706da71},
    {"deep_exact_grow_p1", "tree", 0x8c59a327},
    {"deep_exact_rebalance_p1", "level_0", 0x3f1e78ec},
    {"deep_exact_rebalance_p1", "level_1", 0x468fff79},
    {"deep_exact_rebalance_p1", "level_2", 0x71db4c4d},
    {"deep_exact_rebalance_p1", "level_3", 0x97e15ecf},
    {"deep_exact_rebalance_p1", "level_4", 0x4706da71},
    {"deep_exact_rebalance_p1", "tree", 0x8c59a327},
    {"deep_histogram_clean_p1", "level_0", 0x3f1e78ec},
    {"deep_histogram_clean_p1", "level_1", 0x5c1823e1},
    {"deep_histogram_clean_p1", "level_2", 0xa4e754bb},
    {"deep_histogram_clean_p1", "level_3", 0x679be500},
    {"deep_histogram_clean_p1", "level_4", 0x1e324d11},
    {"deep_histogram_clean_p1", "tree", 0x66091de8},
    {"deep_histogram_kill_resume_p1", "level_0", 0x3f1e78ec},
    {"deep_histogram_kill_resume_p1", "level_1", 0x5c1823e1},
    {"deep_histogram_kill_resume_p1", "level_2", 0xa4e754bb},
    {"deep_histogram_kill_resume_p1", "level_3", 0x679be500},
    {"deep_histogram_kill_resume_p1", "level_4", 0x1e324d11},
    {"deep_histogram_kill_resume_p1", "tree", 0x66091de8},
    {"deep_histogram_shrink_p1", "level_0", 0x3f1e78ec},
    {"deep_histogram_shrink_p1", "level_1", 0x5c1823e1},
    {"deep_histogram_shrink_p1", "level_2", 0xa4e754bb},
    {"deep_histogram_shrink_p1", "level_3", 0x679be500},
    {"deep_histogram_shrink_p1", "level_4", 0x1e324d11},
    {"deep_histogram_shrink_p1", "tree", 0x66091de8},
    {"deep_histogram_grow_p1", "level_0", 0x3f1e78ec},
    {"deep_histogram_grow_p1", "level_1", 0x5c1823e1},
    {"deep_histogram_grow_p1", "level_2", 0xa4e754bb},
    {"deep_histogram_grow_p1", "level_3", 0x679be500},
    {"deep_histogram_grow_p1", "level_4", 0x1e324d11},
    {"deep_histogram_grow_p1", "tree", 0x66091de8},
    {"deep_voting_clean_p1", "level_0", 0x3f1e78ec},
    {"deep_voting_clean_p1", "level_1", 0x5c1823e1},
    {"deep_voting_clean_p1", "level_2", 0xa4e754bb},
    {"deep_voting_clean_p1", "level_3", 0x679be500},
    {"deep_voting_clean_p1", "level_4", 0x1e324d11},
    {"deep_voting_clean_p1", "tree", 0x66091de8},
    {"deep_voting_kill_resume_p1", "level_0", 0x3f1e78ec},
    {"deep_voting_kill_resume_p1", "level_1", 0x5c1823e1},
    {"deep_voting_kill_resume_p1", "level_2", 0xa4e754bb},
    {"deep_voting_kill_resume_p1", "level_3", 0x679be500},
    {"deep_voting_kill_resume_p1", "level_4", 0x1e324d11},
    {"deep_voting_kill_resume_p1", "tree", 0x66091de8},
    {"deep_voting_shrink_p1", "level_0", 0x3f1e78ec},
    {"deep_voting_shrink_p1", "level_1", 0x5c1823e1},
    {"deep_voting_shrink_p1", "level_2", 0xa4e754bb},
    {"deep_voting_shrink_p1", "level_3", 0x679be500},
    {"deep_voting_shrink_p1", "level_4", 0x1e324d11},
    {"deep_voting_shrink_p1", "tree", 0x66091de8},
    {"deep_voting_grow_p1", "level_0", 0x3f1e78ec},
    {"deep_voting_grow_p1", "level_1", 0x5c1823e1},
    {"deep_voting_grow_p1", "level_2", 0xa4e754bb},
    {"deep_voting_grow_p1", "level_3", 0x679be500},
    {"deep_voting_grow_p1", "level_4", 0x1e324d11},
    {"deep_voting_grow_p1", "tree", 0x66091de8},
    {"mixed_exact_clean_p1", "level_0", 0xbd3f56a5},
    {"mixed_exact_clean_p1", "level_1", 0xb21fa430},
    {"mixed_exact_clean_p1", "level_2", 0x7f035722},
    {"mixed_exact_clean_p1", "level_3", 0x37304b06},
    {"mixed_exact_clean_p1", "level_4", 0xa5d7156c},
    {"mixed_exact_clean_p1", "level_5", 0x07a98c73},
    {"mixed_exact_clean_p1", "level_6", 0xc23d93a6},
    {"mixed_exact_clean_p1", "level_7", 0x674ec566},
    {"mixed_exact_clean_p1", "tree", 0x955aed57},
    {"deep_exact_clean_p2", "level_0", 0x73681c7f},
    {"deep_exact_clean_p2", "level_1", 0xeafa0684},
    {"deep_exact_clean_p2", "level_2", 0x67bc8573},
    {"deep_exact_clean_p2", "level_3", 0xd3a748e5},
    {"deep_exact_clean_p2", "level_4", 0x0280217d},
    {"deep_exact_clean_p2", "tree", 0x8c59a327},
    {"deep_exact_kill_resume_p2", "level_0", 0x73681c7f},
    {"deep_exact_kill_resume_p2", "level_1", 0xeafa0684},
    {"deep_exact_kill_resume_p2", "level_2", 0x67bc8573},
    {"deep_exact_kill_resume_p2", "level_3", 0xd3a748e5},
    {"deep_exact_kill_resume_p2", "level_4", 0x0280217d},
    {"deep_exact_kill_resume_p2", "tree", 0x8c59a327},
    {"deep_exact_shrink_p2", "level_0", 0x73681c7f},
    {"deep_exact_shrink_p2", "level_1", 0xeafa0684},
    {"deep_exact_shrink_p2", "level_2", 0x71db4c4d},
    {"deep_exact_shrink_p2", "level_3", 0x97e15ecf},
    {"deep_exact_shrink_p2", "level_4", 0x4706da71},
    {"deep_exact_shrink_p2", "tree", 0x8c59a327},
    {"deep_exact_grow_p2", "level_0", 0x73681c7f},
    {"deep_exact_grow_p2", "level_1", 0xeafa0684},
    {"deep_exact_grow_p2", "level_2", 0xc3b8444e},
    {"deep_exact_grow_p2", "level_3", 0xfcb7229f},
    {"deep_exact_grow_p2", "level_4", 0xfad486bf},
    {"deep_exact_grow_p2", "tree", 0x8c59a327},
    {"deep_exact_rebalance_p2", "level_0", 0x73681c7f},
    {"deep_exact_rebalance_p2", "level_1", 0xeafa0684},
    {"deep_exact_rebalance_p2", "level_2", 0x16a9e747},
    {"deep_exact_rebalance_p2", "level_3", 0xb1e8488c},
    {"deep_exact_rebalance_p2", "level_4", 0x922598ba},
    {"deep_exact_rebalance_p2", "tree", 0x8c59a327},
    {"deep_histogram_clean_p2", "level_0", 0xc12784ec},
    {"deep_histogram_clean_p2", "level_1", 0x8b4fcc7f},
    {"deep_histogram_clean_p2", "level_2", 0x64cffa83},
    {"deep_histogram_clean_p2", "level_3", 0xd8d18805},
    {"deep_histogram_clean_p2", "level_4", 0x6d44727f},
    {"deep_histogram_clean_p2", "tree", 0x66091de8},
    {"deep_histogram_kill_resume_p2", "level_0", 0xc12784ec},
    {"deep_histogram_kill_resume_p2", "level_1", 0x8b4fcc7f},
    {"deep_histogram_kill_resume_p2", "level_2", 0x64cffa83},
    {"deep_histogram_kill_resume_p2", "level_3", 0xd8d18805},
    {"deep_histogram_kill_resume_p2", "level_4", 0x6d44727f},
    {"deep_histogram_kill_resume_p2", "tree", 0x66091de8},
    {"deep_histogram_shrink_p2", "level_0", 0xc12784ec},
    {"deep_histogram_shrink_p2", "level_1", 0x8b4fcc7f},
    {"deep_histogram_shrink_p2", "level_2", 0xa4e754bb},
    {"deep_histogram_shrink_p2", "level_3", 0x679be500},
    {"deep_histogram_shrink_p2", "level_4", 0x1e324d11},
    {"deep_histogram_shrink_p2", "tree", 0x66091de8},
    {"deep_histogram_grow_p2", "level_0", 0xc12784ec},
    {"deep_histogram_grow_p2", "level_1", 0x8b4fcc7f},
    {"deep_histogram_grow_p2", "level_2", 0x8a575f33},
    {"deep_histogram_grow_p2", "level_3", 0x3f7193b0},
    {"deep_histogram_grow_p2", "level_4", 0xc9f16244},
    {"deep_histogram_grow_p2", "tree", 0x66091de8},
    {"deep_voting_clean_p2", "level_0", 0xc12784ec},
    {"deep_voting_clean_p2", "level_1", 0x8b4fcc7f},
    {"deep_voting_clean_p2", "level_2", 0x64cffa83},
    {"deep_voting_clean_p2", "level_3", 0xd8d18805},
    {"deep_voting_clean_p2", "level_4", 0x6d44727f},
    {"deep_voting_clean_p2", "tree", 0x66091de8},
    {"deep_voting_kill_resume_p2", "level_0", 0xc12784ec},
    {"deep_voting_kill_resume_p2", "level_1", 0x8b4fcc7f},
    {"deep_voting_kill_resume_p2", "level_2", 0x64cffa83},
    {"deep_voting_kill_resume_p2", "level_3", 0xd8d18805},
    {"deep_voting_kill_resume_p2", "level_4", 0x6d44727f},
    {"deep_voting_kill_resume_p2", "tree", 0x66091de8},
    {"deep_voting_shrink_p2", "level_0", 0xc12784ec},
    {"deep_voting_shrink_p2", "level_1", 0x8b4fcc7f},
    {"deep_voting_shrink_p2", "level_2", 0xa4e754bb},
    {"deep_voting_shrink_p2", "level_3", 0x679be500},
    {"deep_voting_shrink_p2", "level_4", 0x1e324d11},
    {"deep_voting_shrink_p2", "tree", 0x66091de8},
    {"deep_voting_grow_p2", "level_0", 0xc12784ec},
    {"deep_voting_grow_p2", "level_1", 0x8b4fcc7f},
    {"deep_voting_grow_p2", "level_2", 0x8a575f33},
    {"deep_voting_grow_p2", "level_3", 0x3f7193b0},
    {"deep_voting_grow_p2", "level_4", 0xc9f16244},
    {"deep_voting_grow_p2", "tree", 0x787ed807},
    {"mixed_exact_clean_p2", "level_0", 0x97c65779},
    {"mixed_exact_clean_p2", "level_1", 0x9c077115},
    {"mixed_exact_clean_p2", "level_2", 0xab44e777},
    {"mixed_exact_clean_p2", "level_3", 0x1555970c},
    {"mixed_exact_clean_p2", "level_4", 0x54b8a172},
    {"mixed_exact_clean_p2", "level_5", 0x16129fd9},
    {"mixed_exact_clean_p2", "level_6", 0xc27ec12d},
    {"mixed_exact_clean_p2", "level_7", 0xcb245b0b},
    {"mixed_exact_clean_p2", "tree", 0x955aed57},
    {"deep_exact_clean_p4", "level_0", 0x2c6cfa04},
    {"deep_exact_clean_p4", "level_1", 0xaced04eb},
    {"deep_exact_clean_p4", "level_2", 0xe8b05437},
    {"deep_exact_clean_p4", "level_3", 0xf2b8f18a},
    {"deep_exact_clean_p4", "level_4", 0xa5538529},
    {"deep_exact_clean_p4", "tree", 0x8c59a327},
    {"deep_exact_kill_resume_p4", "level_0", 0x2c6cfa04},
    {"deep_exact_kill_resume_p4", "level_1", 0xaced04eb},
    {"deep_exact_kill_resume_p4", "level_2", 0xe8b05437},
    {"deep_exact_kill_resume_p4", "level_3", 0xf2b8f18a},
    {"deep_exact_kill_resume_p4", "level_4", 0xa5538529},
    {"deep_exact_kill_resume_p4", "tree", 0x8c59a327},
    {"deep_exact_shrink_p4", "level_0", 0x2c6cfa04},
    {"deep_exact_shrink_p4", "level_1", 0xaced04eb},
    {"deep_exact_shrink_p4", "level_2", 0xc3b8444e},
    {"deep_exact_shrink_p4", "level_3", 0xfcb7229f},
    {"deep_exact_shrink_p4", "level_4", 0xfad486bf},
    {"deep_exact_shrink_p4", "tree", 0x8c59a327},
    {"deep_exact_grow_p4", "level_0", 0x2c6cfa04},
    {"deep_exact_grow_p4", "level_1", 0xaced04eb},
    {"deep_exact_grow_p4", "level_2", 0x8d7abe79},
    {"deep_exact_grow_p4", "level_3", 0xf7dd3386},
    {"deep_exact_grow_p4", "level_4", 0x864a0a3e},
    {"deep_exact_grow_p4", "tree", 0x8c59a327},
    {"deep_exact_rebalance_p4", "level_0", 0x2c6cfa04},
    {"deep_exact_rebalance_p4", "level_1", 0xaced04eb},
    {"deep_exact_rebalance_p4", "level_2", 0xa18300f6},
    {"deep_exact_rebalance_p4", "level_3", 0x8610f199},
    {"deep_exact_rebalance_p4", "level_4", 0xba56d586},
    {"deep_exact_rebalance_p4", "tree", 0x8c59a327},
    {"deep_histogram_clean_p4", "level_0", 0x2664af93},
    {"deep_histogram_clean_p4", "level_1", 0xab80dc74},
    {"deep_histogram_clean_p4", "level_2", 0x69fb22b3},
    {"deep_histogram_clean_p4", "level_3", 0xdfa16f71},
    {"deep_histogram_clean_p4", "level_4", 0x5e63b9e2},
    {"deep_histogram_clean_p4", "tree", 0x66091de8},
    {"deep_histogram_kill_resume_p4", "level_0", 0x2664af93},
    {"deep_histogram_kill_resume_p4", "level_1", 0xab80dc74},
    {"deep_histogram_kill_resume_p4", "level_2", 0x69fb22b3},
    {"deep_histogram_kill_resume_p4", "level_3", 0xdfa16f71},
    {"deep_histogram_kill_resume_p4", "level_4", 0x5e63b9e2},
    {"deep_histogram_kill_resume_p4", "tree", 0x66091de8},
    {"deep_histogram_shrink_p4", "level_0", 0x2664af93},
    {"deep_histogram_shrink_p4", "level_1", 0xab80dc74},
    {"deep_histogram_shrink_p4", "level_2", 0x8a575f33},
    {"deep_histogram_shrink_p4", "level_3", 0x3f7193b0},
    {"deep_histogram_shrink_p4", "level_4", 0xc9f16244},
    {"deep_histogram_shrink_p4", "tree", 0x66091de8},
    {"deep_histogram_grow_p4", "level_0", 0x2664af93},
    {"deep_histogram_grow_p4", "level_1", 0xab80dc74},
    {"deep_histogram_grow_p4", "level_2", 0x96eff8a5},
    {"deep_histogram_grow_p4", "level_3", 0x34e894f7},
    {"deep_histogram_grow_p4", "level_4", 0x3f7131ec},
    {"deep_histogram_grow_p4", "tree", 0x66091de8},
    {"deep_voting_clean_p4", "level_0", 0x2664af93},
    {"deep_voting_clean_p4", "level_1", 0xab80dc74},
    {"deep_voting_clean_p4", "level_2", 0x69fb22b3},
    {"deep_voting_clean_p4", "level_3", 0x40a9cb46},
    {"deep_voting_clean_p4", "level_4", 0x11ff476b},
    {"deep_voting_clean_p4", "tree", 0x1d188a08},
    {"deep_voting_kill_resume_p4", "level_0", 0x2664af93},
    {"deep_voting_kill_resume_p4", "level_1", 0xab80dc74},
    {"deep_voting_kill_resume_p4", "level_2", 0x69fb22b3},
    {"deep_voting_kill_resume_p4", "level_3", 0x40a9cb46},
    {"deep_voting_kill_resume_p4", "level_4", 0x11ff476b},
    {"deep_voting_kill_resume_p4", "tree", 0x1d188a08},
    {"deep_voting_shrink_p4", "level_0", 0x2664af93},
    {"deep_voting_shrink_p4", "level_1", 0xab80dc74},
    {"deep_voting_shrink_p4", "level_2", 0x8a575f33},
    {"deep_voting_shrink_p4", "level_3", 0x3f7193b0},
    {"deep_voting_shrink_p4", "level_4", 0xc9f16244},
    {"deep_voting_shrink_p4", "tree", 0x787ed807},
    {"deep_voting_grow_p4", "level_0", 0x2664af93},
    {"deep_voting_grow_p4", "level_1", 0xab80dc74},
    {"deep_voting_grow_p4", "level_2", 0x96eff8a5},
    {"deep_voting_grow_p4", "level_3", 0x34e894f7},
    {"deep_voting_grow_p4", "level_4", 0x3f7131ec},
    {"deep_voting_grow_p4", "tree", 0x787ed807},
    {"mixed_exact_clean_p4", "level_0", 0xa47755de},
    {"mixed_exact_clean_p4", "level_1", 0xd19408d5},
    {"mixed_exact_clean_p4", "level_2", 0x8cad88b1},
    {"mixed_exact_clean_p4", "level_3", 0xc51faa55},
    {"mixed_exact_clean_p4", "level_4", 0xec9e773b},
    {"mixed_exact_clean_p4", "level_5", 0x62537575},
    {"mixed_exact_clean_p4", "level_6", 0xb70ddc92},
    {"mixed_exact_clean_p4", "level_7", 0x97f1d386},
    {"mixed_exact_clean_p4", "tree", 0x955aed57},
    {"deep_exact_clean_p8", "level_0", 0xfd2bea9f},
    {"deep_exact_clean_p8", "level_1", 0x7c9225ec},
    {"deep_exact_clean_p8", "level_2", 0x844f5a79},
    {"deep_exact_clean_p8", "level_3", 0xadc533a5},
    {"deep_exact_clean_p8", "level_4", 0x05b4a137},
    {"deep_exact_clean_p8", "tree", 0x8c59a327},
    {"deep_exact_kill_resume_p8", "level_0", 0xfd2bea9f},
    {"deep_exact_kill_resume_p8", "level_1", 0x7c9225ec},
    {"deep_exact_kill_resume_p8", "level_2", 0x844f5a79},
    {"deep_exact_kill_resume_p8", "level_3", 0xadc533a5},
    {"deep_exact_kill_resume_p8", "level_4", 0x05b4a137},
    {"deep_exact_kill_resume_p8", "tree", 0x8c59a327},
    {"deep_exact_shrink_p8", "level_0", 0xfd2bea9f},
    {"deep_exact_shrink_p8", "level_1", 0x7c9225ec},
    {"deep_exact_shrink_p8", "level_2", 0x54e5c6f6},
    {"deep_exact_shrink_p8", "level_3", 0x6ec23363},
    {"deep_exact_shrink_p8", "level_4", 0xcccb6988},
    {"deep_exact_shrink_p8", "tree", 0x8c59a327},
    {"deep_exact_grow_p8", "level_0", 0xfd2bea9f},
    {"deep_exact_grow_p8", "level_1", 0x7c9225ec},
    {"deep_exact_grow_p8", "level_2", 0xe56ca81d},
    {"deep_exact_grow_p8", "level_3", 0xc76e4b55},
    {"deep_exact_grow_p8", "level_4", 0x2012742a},
    {"deep_exact_grow_p8", "tree", 0x8c59a327},
    {"deep_exact_rebalance_p8", "level_0", 0xfd2bea9f},
    {"deep_exact_rebalance_p8", "level_1", 0x7c9225ec},
    {"deep_exact_rebalance_p8", "level_2", 0x41ec1067},
    {"deep_exact_rebalance_p8", "level_3", 0x0791a186},
    {"deep_exact_rebalance_p8", "level_4", 0x34bce92c},
    {"deep_exact_rebalance_p8", "tree", 0x8c59a327},
    {"deep_histogram_clean_p8", "level_0", 0x017c758a},
    {"deep_histogram_clean_p8", "level_1", 0x4d8eb374},
    {"deep_histogram_clean_p8", "level_2", 0x4f6590a3},
    {"deep_histogram_clean_p8", "level_3", 0x7b53c5e7},
    {"deep_histogram_clean_p8", "level_4", 0x1d3ce99d},
    {"deep_histogram_clean_p8", "tree", 0x66091de8},
    {"deep_histogram_kill_resume_p8", "level_0", 0x017c758a},
    {"deep_histogram_kill_resume_p8", "level_1", 0x4d8eb374},
    {"deep_histogram_kill_resume_p8", "level_2", 0x4f6590a3},
    {"deep_histogram_kill_resume_p8", "level_3", 0x7b53c5e7},
    {"deep_histogram_kill_resume_p8", "level_4", 0x1d3ce99d},
    {"deep_histogram_kill_resume_p8", "tree", 0x66091de8},
    {"deep_histogram_shrink_p8", "level_0", 0x017c758a},
    {"deep_histogram_shrink_p8", "level_1", 0x4d8eb374},
    {"deep_histogram_shrink_p8", "level_2", 0x3731989e},
    {"deep_histogram_shrink_p8", "level_3", 0x6729b672},
    {"deep_histogram_shrink_p8", "level_4", 0xe2b96b1a},
    {"deep_histogram_shrink_p8", "tree", 0x66091de8},
    {"deep_histogram_grow_p8", "level_0", 0x017c758a},
    {"deep_histogram_grow_p8", "level_1", 0x4d8eb374},
    {"deep_histogram_grow_p8", "level_2", 0x94e1381f},
    {"deep_histogram_grow_p8", "level_3", 0x4a5e380c},
    {"deep_histogram_grow_p8", "level_4", 0x2a784eaf},
    {"deep_histogram_grow_p8", "tree", 0x66091de8},
    {"deep_voting_clean_p8", "level_0", 0x017c758a},
    {"deep_voting_clean_p8", "level_1", 0x4d8eb374},
    {"deep_voting_clean_p8", "level_2", 0x4f6590a3},
    {"deep_voting_clean_p8", "level_3", 0x7b53c5e7},
    {"deep_voting_clean_p8", "level_4", 0x1d3ce99d},
    {"deep_voting_clean_p8", "tree", 0x787ed807},
    {"deep_voting_kill_resume_p8", "level_0", 0x017c758a},
    {"deep_voting_kill_resume_p8", "level_1", 0x4d8eb374},
    {"deep_voting_kill_resume_p8", "level_2", 0x4f6590a3},
    {"deep_voting_kill_resume_p8", "level_3", 0x7b53c5e7},
    {"deep_voting_kill_resume_p8", "level_4", 0x1d3ce99d},
    {"deep_voting_kill_resume_p8", "tree", 0x787ed807},
    {"deep_voting_shrink_p8", "level_0", 0x017c758a},
    {"deep_voting_shrink_p8", "level_1", 0x4d8eb374},
    {"deep_voting_shrink_p8", "level_2", 0x3731989e},
    {"deep_voting_shrink_p8", "level_3", 0x6729b672},
    {"deep_voting_shrink_p8", "level_4", 0xe2b96b1a},
    {"deep_voting_shrink_p8", "tree", 0x787ed807},
    {"deep_voting_grow_p8", "level_0", 0x017c758a},
    {"deep_voting_grow_p8", "level_1", 0x4d8eb374},
    {"deep_voting_grow_p8", "level_2", 0x94e1381f},
    {"deep_voting_grow_p8", "level_3", 0x4a5e380c},
    {"deep_voting_grow_p8", "level_4", 0x2a784eaf},
    {"deep_voting_grow_p8", "tree", 0x787ed807},
    {"mixed_exact_clean_p8", "level_0", 0x67fede36},
    {"mixed_exact_clean_p8", "level_1", 0xf8207d9c},
    {"mixed_exact_clean_p8", "level_2", 0x3b5bee54},
    {"mixed_exact_clean_p8", "level_3", 0x5e147986},
    {"mixed_exact_clean_p8", "level_4", 0x0b5a8411},
    {"mixed_exact_clean_p8", "level_5", 0x233511ee},
    {"mixed_exact_clean_p8", "level_6", 0xf7e9ae0e},
    {"mixed_exact_clean_p8", "level_7", 0x404ea1a3},
    {"mixed_exact_clean_p8", "tree", 0x955aed57},
    {"subset_entropy_exact_clean_p4", "level_0", 0xb8d35a19},
    {"subset_entropy_exact_clean_p4", "level_1", 0x9a6103cf},
    {"subset_entropy_exact_clean_p4", "level_2", 0xdf1fe3d2},
    {"subset_entropy_exact_clean_p4", "level_3", 0x4b65bb94},
    {"subset_entropy_exact_clean_p4", "level_4", 0x23de11b6},
    {"subset_entropy_exact_clean_p4", "level_5", 0x6daab776},
    {"subset_entropy_exact_clean_p4", "level_6", 0xaabaec1a},
    {"subset_entropy_exact_clean_p4", "level_7", 0x3fe98a0c},
    {"subset_entropy_exact_clean_p4", "tree", 0x91dd4a54},
};

data::Dataset make_training(Workload workload) {
  data::GeneratorConfig config;
  if (workload == Workload::kDeep) {
    config.seed = 3;
    config.function = data::LabelFunction::kF2;
    config.num_attributes = 7;
    return data::QuestGenerator(config).generate(0, 2000);
  }
  config.seed = workload == Workload::kMixed ? 11 : 4;
  config.function = data::LabelFunction::kF6;
  config.num_attributes = 9;
  config.label_noise = 0.05;
  return data::QuestGenerator(config).generate(
      0, workload == Workload::kMixed ? 1200 : 900);
}

core::InductionControls base_controls(const Cell& cell) {
  core::InductionControls controls;
  controls.options.split_mode = cell.mode;
  controls.options.max_depth = cell.workload == Workload::kDeep ? 5 : 8;
  if (cell.workload == Workload::kSubsetEntropy) {
    controls.options.categorical_split = core::CategoricalSplit::kBinarySubset;
    controls.options.criterion = core::SplitCriterion::kEntropy;
  }
  return controls;
}

struct TempDir {
  std::string path;
  // Starts empty: a directory left behind by a killed earlier process with
  // the same pid would otherwise add its levels to this cell's listings.
  explicit TempDir(const std::string& stem)
      : path((fs::temp_directory_path() /
              (stem + "_" + std::to_string(::getpid()) + "_" +
               std::to_string(counter_++)))
                 .string()) {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  static inline int counter_ = 0;
};

std::uint32_t crc_of(const std::string& bytes) {
  return util::crc32(bytes.data(), bytes.size());
}

std::string hex(std::uint32_t value) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", value);
  return buf;
}

// One listing per top-level directory under `root`: "<relpath> <crc>\n"
// for each regular file, in sorted path order.
std::map<std::string, std::string> checkpoint_listings(const std::string& root) {
  std::map<std::string, std::uint32_t> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    files[fs::relative(entry.path(), root).generic_string()] = crc_of(bytes);
  }
  std::map<std::string, std::string> listings;
  for (const auto& [path, crc] : files) {
    listings[path.substr(0, path.find('/'))] += path + " " + hex(crc) + "\n";
  }
  return listings;
}

struct CellRun {
  std::map<std::string, std::uint32_t> digests;
  std::map<std::string, std::string> listings;
};

// Trains one cell with checkpointing on and returns its digests. Fault
// cells assert that the fault actually fired and was recovered the way the
// cell names, so a cell cannot silently degrade into a clean run.
CellRun run_cell(const Cell& cell) {
  const data::Dataset training = make_training(cell.workload);
  TempDir dir("scalparc_golden");
  core::InductionControls controls = base_controls(cell);
  controls.checkpoint.directory = dir.path;
  const int victim = cell.p > 1 ? 1 : 0;
  const std::string kill =
      "kill:r=" + std::to_string(victim) + ",level=2";

  std::string tree;
  const auto save = [&tree](const core::DecisionTree& fitted) {
    std::ostringstream out;
    core::save_tree(fitted, out);
    tree = out.str();
  };
  switch (cell.fault) {
    case Fault::kClean:
      save(core::ScalParC::fit(training, cell.p, controls, kZero).tree);
      break;
    case Fault::kKillResume:
    case Fault::kShrink:
    case Fault::kGrow: {
      mp::FaultSchedule schedule;
      schedule.parse(kill);
      core::RecoveryControls recovery;
      recovery.policy = cell.fault == Fault::kShrink ? core::RecoveryPolicy::kShrink
                        : cell.fault == Fault::kGrow ? core::RecoveryPolicy::kGrow
                                                     : core::RecoveryPolicy::kRestart;
      recovery.join_ranks = 2;
      recovery.fault_schedule = &schedule;
      const core::RecoveryReport report = core::ScalParC::fit_with_recovery(
          training, cell.p, controls, recovery, kZero);
      EXPECT_EQ(report.outcome, core::RecoveryOutcome::kCompleted);
      EXPECT_EQ(report.attempts, 2);
      if (report.events.size() == 1) {
        EXPECT_EQ(report.events[0].resumed_level, 2);
        // p=1 has no survivor to shrink to or grow from: both degrade to a
        // restart of the one-rank world.
        const int expected_world = cell.p == 1               ? 1
                                   : cell.fault == Fault::kShrink ? cell.p - 1
                                   : cell.fault == Fault::kGrow   ? cell.p + 1
                                                                  : cell.p;
        EXPECT_EQ(report.events[0].ranks_after, expected_world);
      } else {
        ADD_FAILURE() << "expected exactly one recovery event, got "
                      << report.events.size();
      }
      save(report.fit.tree);
      break;
    }
    case Fault::kRebalance: {
      mp::FaultPlan plan;
      plan.parse(kill);
      mp::RunOptions faulty;
      faulty.fault_plan = &plan;
      EXPECT_THROW(
          (void)core::ScalParC::fit(training, cell.p, controls, kZero, faulty),
          mp::InjectedFault);
      controls.checkpoint.resume = true;
      controls.checkpoint.allow_repartition = true;
      controls.checkpoint.rank_weights.assign(static_cast<std::size_t>(cell.p),
                                              1.0);
      controls.checkpoint.rank_weights.back() = 0.2;  // one slow rank
      save(core::ScalParC::fit(training, cell.p, controls, kZero).tree);
      break;
    }
  }

  CellRun run;
  run.digests["tree"] = crc_of(tree);
  run.listings = checkpoint_listings(dir.path);
  for (const auto& [level, listing] : run.listings) {
    run.digests[level] = crc_of(listing);
  }
  return run;
}

class GoldenDigest : public ::testing::TestWithParam<Cell> {};

TEST_P(GoldenDigest, MatchesCommittedTable) {
  const std::string name = cell_name(GetParam());
  std::map<std::string, std::uint32_t> expected;
  for (const Golden& golden : kGolden) {
    if (name == golden.cell) expected[golden.key] = golden.crc;
  }
  const CellRun run = run_cell(GetParam());
  ASSERT_GT(run.listings.size(), 2u) << name << ": too few checkpoint levels";

  if (run.digests == expected) return;

  // Mismatch: name each differing key (with the per-file listing behind a
  // level digest) and print every observed row for review.
  std::ostringstream report;
  for (const auto& [key, crc] : run.digests) {
    const auto it = expected.find(key);
    if (it != expected.end() && it->second == crc) continue;
    report << key << ": observed " << hex(crc) << ", golden "
           << (it == expected.end() ? "none" : hex(it->second)) << "\n";
    if (key != "tree") report << run.listings.at(key);
  }
  for (const auto& [key, crc] : expected) {
    if (run.digests.count(key) == 0) {
      report << key << ": missing, golden " << hex(crc) << "\n";
    }
  }
  report << "observed rows:\n";
  for (const auto& [key, crc] : run.digests) {
    report << "    {\"" << name << "\", \"" << key << "\", " << hex(crc)
           << "},\n";
  }
  ADD_FAILURE() << name << " differs from the golden table\n" << report.str();
}

INSTANTIATE_TEST_SUITE_P(
    Cells, GoldenDigest, ::testing::ValuesIn(all_cells()),
    [](const ::testing::TestParamInfo<Cell>& info) {
      return cell_name(info.param);
    });

}  // namespace
}  // namespace scalparc

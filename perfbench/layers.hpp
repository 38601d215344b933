// The traced run's in-process half: replay a workload's generated requests
// through each layer's public functions, one span per call, and derive the
// per-layer metrics from the spans.  Also drains a seeded steal-farm bag.
#pragma once

#include <cstdint>
#include <string>

#include "workloads.hpp"

namespace pb {

struct LayerOptions {
  Workload workload = Workload::HotMemo;
  std::uint64_t seed = 1;
  std::string spans_out;  ///< JSONL span dump written at the end
};

/// Run the replay; writes one JSON object to `out`.
void run_layers(const LayerOptions& opt, std::string& out);

/// Per family: serve random (profile, c) pairs from a SolutionAtlas and count
/// the answers whose expected work falls short of a direct guideline solve
/// by more than their advertised bound.  Writes one JSON object to `out`.
void atlas_check(std::uint64_t seed, std::string& out);

}  // namespace pb

// Load generation against a running csserve: the set-up warm-up, a closed
// loop, an open loop, and the correctness checks of sampled answers.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace pb {

/// Connections per workload: csserve runs two loop shards, and accepted
/// connections are dealt to them in turn, so each shard serves one.
inline constexpr std::size_t kConnections = 2;

/// Serve tiers as reported by the v2 `tier` response field.
inline constexpr std::array<const char*, 4> kTiers = {"memo", "lru", "atlas",
                                                      "cold"};

struct TierCounts {
  std::array<std::uint64_t, 4> n{};
  void add(const TierCounts& o) {
    for (std::size_t i = 0; i < n.size(); ++i) n[i] += o.n[i];
  }
};

/// A response kept for the after-run comparison with a direct solve.
struct Sample {
  Request request;
  std::string response;
};

/// Operations attempted and failed in one phase.
struct PhaseCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions
  void fail(std::string why);
  void add(const PhaseCount& o);
};

struct ClosedResult {
  PhaseCount count;
  double seconds = 0.0;
  double throughput_rps = 0.0;        ///< mean over clean windows
  double throughput_total_rps = 0.0;  ///< whole phase
  std::vector<std::uint64_t> window_done;  ///< answers per window
  std::vector<double> window_rps;          ///< full windows, first left out
  std::vector<double> window_steal;        ///< host steal share per window
  TierCounts tiers;
  std::vector<Sample> samples;
};

struct OpenResult {
  PhaseCount count;
  double rate = 0.0;
  double p50_us = 0.0;  ///< median over the clean windows
  double p99_us = 0.0;  ///< whole phase
  double late_p99_us = 0.0;
  std::vector<double> window_p50_us;
  std::vector<double> window_steal;
  std::uint64_t latencies = 0;
  TierCounts tiers;
};

struct LoadOptions {
  Workload workload = Workload::HotMemo;
  std::uint64_t seed = 1;
  std::uint16_t port = 0;
  double closed_s = 1.0;
  double open_s = 1.0;
  double rate = 1000.0;       ///< open-loop requests per second, total
  double window_s = 0.5;  ///< statistics window of both loops
};

/// Send the workload's warm-up list twice on each of kConnections fresh
/// connections (so every loop shard memoizes it) and check the answers.
PhaseCount warm_up(const LoadOptions& opt);

/// Closed and open loop on the same connections, plus `stats` verb
/// snapshots taken before and after; writes one JSON object to `out`.
void run_load(const LoadOptions& opt, std::string& out);

/// Compare sampled answers with direct in-process solves: bit for bit for
/// exact tiers, within the advertised bound for atlas answers.
PhaseCount check_samples(const std::vector<Sample>& samples);

}  // namespace pb

// Seeded request generators for the perfbench workloads.
//
// A workload is a stream of csserve solve requests produced from
// (workload, seed, stream).  Each connection of the load generator draws from
// its own stream, so a seed fixes every byte the server receives.  All
// randomness comes from a SplitMix64 state and explicit arithmetic, never a
// std:: distribution, so the same seed gives the same lines on every
// standard library.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pb {

enum class Workload { HotMemo, ColdUnique, ZipfDrift };

/// "hot_memo" | "cold_unique" | "zipf_drift"; throws std::invalid_argument.
[[nodiscard]] Workload parse_workload(std::string_view name);
[[nodiscard]] const char* to_string(Workload w) noexcept;

/// csserve flags the workload's server runs with (besides --port 0).
[[nodiscard]] std::vector<std::string> server_flags(Workload w);

/// Deterministic SplitMix64 stream.
class Rng {
 public:
  explicit Rng(std::uint64_t seed, std::uint64_t stream = 0);
  std::uint64_t next() noexcept;
  /// U[0,1) with 53 random bits.
  double uniform01() noexcept;
  double uniform(double lo, double hi) noexcept;
  /// log-uniform on [lo, hi].
  double log_uniform(double lo, double hi) noexcept;
  /// Integer in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) noexcept;

 private:
  std::uint64_t state_;
};

/// The nine life-function families, in factory order.
[[nodiscard]] const std::vector<std::string>& families();

/// One generated solve request.
struct Request {
  std::string life;    ///< life spec exactly as sent
  std::string c_text;  ///< overhead exactly as sent
  double c = 0.0;
  bool greedy = false;
};

/// The wire frame for `r` with request id `id` (protocol v2, no newline).
[[nodiscard]] std::string render_line(const Request& r, std::int64_t id);

/// Family name of a life spec ("uniform:L=5" -> "uniform").
[[nodiscard]] std::string family_of(std::string_view life);

class Generator {
 public:
  Generator(Workload w, std::uint64_t seed, std::uint64_t stream);

  /// The next request of this stream.
  [[nodiscard]] Request next();

  /// Requests the set-up phase sends on every connection before timing.
  [[nodiscard]] std::vector<Request> warmup() const;

 private:
  struct Profile {
    std::string family;
    std::string spec;       ///< canonical-form spelling
    std::string alt_spec;   ///< a second equivalent spelling ("" if none)
    double scale = 1.0;     ///< time scale: c ranges are relative to it
  };

  /// Catalog key `key`: profile key % profiles, at its fixed c.  hot_memo's
  /// 64 specs are a catalog of 64 keys.
  Request catalog_request(std::size_t key) const;
  /// Catalog key `key` in a fresh, exactly equivalent spelling.
  Request respelled(std::size_t key);
  /// `p` at a fresh continuous c (never seen before).
  Request fresh_c(const Profile& p);

  Workload workload_;
  Rng rng_;
  std::uint64_t rotation_;            ///< cold_unique: next family index
  std::vector<Profile> profiles_;
  std::vector<double> catalog_c_;     ///< c of each catalog key
  std::vector<double> zipf_cdf_;      ///< cumulative Zipf weights over keys
};

/// A request never seen before: a `family` profile with continuous
/// parameters at a continuous c (what cold_unique sends).
[[nodiscard]] Request unique_request(const std::string& family, Rng& rng);

/// Draw one profile of `family` with continuous parameters from `rng`.
/// Returns the spec, an alternative spelling (may be empty) and the time
/// scale of the profile.
void draw_profile(const std::string& family, Rng& rng, std::string* spec,
                  std::string* alt, double* scale);

}  // namespace pb

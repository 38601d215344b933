#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "lifefn/factory.hpp"

namespace pb {

namespace {

// Workload shape.  Changing any of these changes the benchmark: a new
// baseline must be measured (choosing-metrics guide, section 6.2).
constexpr std::uint64_t kCatalogSeed = 1998;  // fixes profiles and catalog
constexpr std::size_t kHotSpecs = 64;         // hot_memo working set
constexpr std::size_t kProfiles = 32;         // zipf_drift profiles
constexpr std::size_t kCPerProfile = 64;      // catalog c values per profile
constexpr double kZipfS = 1.0;                // catalog popularity exponent
constexpr std::size_t kPopularProfiles = 8;   // targets of fresh-c requests
constexpr std::size_t kWarmCatalogKeys = 256; // zipf_drift warm-up head
// Per-request mix of zipf_drift, in percent (the rest are catalog draws).
constexpr std::uint64_t kRespellPct = 8;
constexpr std::uint64_t kFreshCPct = 7;
constexpr std::uint64_t kGreedyPct = 6;
// zipf_drift draws its profiles from the families whose atlas answers stay
// within their advertised error bound; on uniform, polyrisk, geomrisk, pwl
// and empirical the bound is exceeded (see METRICS.md), which would make
// every run of the workload fail its correctness check.
const std::vector<std::string> kAtlasFamilies = {"geomlife", "weibull", "pareto"};
// Overheads relative to the profile's time scale.
constexpr double kRelCLo = 0.002;
constexpr double kRelCHi = 0.02;

/// Round to `digits` significant decimal digits (the spelling a client
/// would type), returning the double that spelling denotes.
double round_sig(double v, int digits) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.*g", digits, v);
  return std::strtod(buf, nullptr);
}

std::string fmt(double v, int digits = 6) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.*g", digits, v);
  return buf;
}

/// One of many exact spellings of `v` (which is a %.6g-rounded value):
/// leading zeros, trailing zeros, or a long exponent form.  Every spelling
/// parses back to exactly `v`.
std::string respell_number(double v, Rng& rng) {
  const std::string plain = fmt(v);
  switch (rng.below(3)) {
    case 0:
      return std::string(1 + rng.below(12), '0') + plain;
    case 1: {
      if (plain.find('e') != std::string::npos) break;
      std::string out = plain;
      if (out.find('.') == std::string::npos) out += '.';
      out.append(1 + rng.below(12), '0');
      return out;
    }
    default:
      break;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*e", 16 + static_cast<int>(rng.below(4)),
                v);
  return buf;
}

}  // namespace

Workload parse_workload(std::string_view name) {
  if (name == "hot_memo") return Workload::HotMemo;
  if (name == "cold_unique") return Workload::ColdUnique;
  if (name == "zipf_drift") return Workload::ZipfDrift;
  throw std::invalid_argument("unknown workload '" + std::string(name) +
                              "' (want hot_memo|cold_unique|zipf_drift)");
}

const char* to_string(Workload w) noexcept {
  switch (w) {
    case Workload::HotMemo: return "hot_memo";
    case Workload::ColdUnique: return "cold_unique";
    case Workload::ZipfDrift: return "zipf_drift";
  }
  return "?";
}

std::vector<std::string> server_flags(Workload w) {
  std::vector<std::string> flags = {"--loops", "2", "--threads", "2"};
  if (w == Workload::ZipfDrift) {
    flags.insert(flags.end(), {"--atlas", "--cache", "1024"});
  }
  return flags;
}

Rng::Rng(std::uint64_t seed, std::uint64_t stream)
    : state_(seed * 0x9E3779B97F4A7C15ULL ^ (stream + 1) * 0xD1B54A32D192ED03ULL) {
  (void)next();
}

std::uint64_t Rng::next() noexcept {
  state_ += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rng::uniform01() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform01();
}

double Rng::log_uniform(double lo, double hi) noexcept {
  return lo * std::exp(std::log(hi / lo) * uniform01());
}

std::uint64_t Rng::below(std::uint64_t n) noexcept { return next() % n; }

const std::vector<std::string>& families() {
  static const std::vector<std::string> kFamilies =
      cs::known_life_function_families();
  return kFamilies;
}

std::string family_of(std::string_view life) {
  return std::string(life.substr(0, life.find(':')));
}

std::string render_line(const Request& r, std::int64_t id) {
  std::string line = "{\"v\":2,\"id\":";
  line += std::to_string(id);
  line += ",\"life\":\"";
  line += r.life;
  line += "\",\"c\":";
  line += r.c_text;
  if (r.greedy) line += ",\"solver\":\"greedy\"";
  line += ",\"max_periods\":0}";
  return line;
}

void draw_profile(const std::string& family, Rng& rng, std::string* spec,
                  std::string* alt, double* scale) {
  alt->clear();
  const auto knots = [&](bool strictly_convex) {
    // 0:1 ; t1:p1 ; t2:p2 ; t3:0 with decreasing p and increasing t.
    const double t1 = round_sig(rng.log_uniform(40.0, 400.0), 6);
    const double t2 = round_sig(t1 * rng.uniform(1.5, 2.5), 6);
    const double t3 = round_sig(t2 * rng.uniform(1.3, 2.0), 6);
    const double p1 = round_sig(rng.uniform(0.55, 0.85), 6);
    const double p2 = round_sig(p1 * rng.uniform(strictly_convex ? 0.2 : 0.3,
                                                 strictly_convex ? 0.5 : 0.6),
                                6);
    *scale = t3;
    return "0:1;" + fmt(t1) + ":" + fmt(p1) + ";" + fmt(t2) + ":" + fmt(p2) +
           ";" + fmt(t3) + ":0";
  };
  if (family == "uniform") {
    const double L = round_sig(rng.log_uniform(200.0, 5000.0), 6);
    *spec = "uniform:L=" + fmt(L);
    *scale = L;
  } else if (family == "polyrisk") {
    const int d = 2 + static_cast<int>(rng.below(3));
    const double L = round_sig(rng.log_uniform(200.0, 5000.0), 6);
    *spec = "polyrisk:d=" + std::to_string(d) + ",L=" + fmt(L);
    *alt = "polyrisk:L=" + fmt(L) + ",d=" + std::to_string(d);
    *scale = L;
  } else if (family == "geomlife") {
    const double half = round_sig(rng.log_uniform(30.0, 1000.0), 6);
    *alt = "geomlife:half=" + fmt(half);
    *spec = cs::make_life_function(*alt)->spec();
    *scale = half;
  } else if (family == "geomrisk") {
    const double L = round_sig(rng.log_uniform(20.0, 400.0), 6);
    *spec = "geomrisk:L=" + fmt(L);
    *scale = L;
  } else if (family == "weibull") {
    const double k = round_sig(rng.uniform(0.7, 2.5), 6);
    const double s = round_sig(rng.log_uniform(100.0, 2000.0), 6);
    *spec = "weibull:k=" + fmt(k) + ",scale=" + fmt(s);
    *alt = "weibull:scale=" + fmt(s) + ",k=" + fmt(k);
    *scale = s;
  } else if (family == "pareto") {
    const double d = round_sig(rng.uniform(1.5, 4.0), 6);
    *spec = "pareto:d=" + fmt(d);
    *scale = 10.0 / (d - 1.0);  // ten mean lifespans
  } else if (family == "lognormal") {
    const double mu = round_sig(rng.uniform(3.0, 7.0), 6);
    const double sigma = round_sig(rng.uniform(0.4, 1.2), 6);
    *spec = "lognormal:mu=" + fmt(mu) + ",sigma=" + fmt(sigma);
    *alt = "lognormal:sigma=" + fmt(sigma) + ",mu=" + fmt(mu);
    *scale = std::exp(mu);
  } else if (family == "pwl") {
    *spec = "pwl:" + knots(false);
  } else if (family == "empirical") {
    *spec = "empirical:" + knots(true);
  } else {
    throw std::invalid_argument("unknown family " + family);
  }
}

Generator::Generator(Workload w, std::uint64_t seed, std::uint64_t stream)
    : workload_(w), rng_(seed, stream), rotation_(rng_.below(families().size())) {
  // The profile set and catalog are fixed, like a dataset: the seed drives
  // the traffic over them, so runs with different seeds differ only in
  // which requests arrive in which order, not in what the catalog costs.
  Rng shape(kCatalogSeed, 0x5EED);
  const auto& fam = w == Workload::ZipfDrift ? kAtlasFamilies : families();
  const std::size_t n = w == Workload::HotMemo ? kHotSpecs
                        : w == Workload::ZipfDrift ? kProfiles
                                                   : 0;
  for (std::size_t i = 0; i < n; ++i) {
    Profile p;
    p.family = fam[i % fam.size()];
    draw_profile(p.family, shape, &p.spec, &p.alt_spec, &p.scale);
    profiles_.push_back(std::move(p));
  }
  if (w == Workload::HotMemo) {
    for (std::size_t i = 0; i < n; ++i) {
      catalog_c_.push_back(round_sig(
          profiles_[i].scale * shape.log_uniform(kRelCLo, kRelCHi), 6));
    }
  }
  if (w == Workload::ZipfDrift) {
    // Catalog key r belongs to profile r % kProfiles, so the popular head
    // spans every profile; its c is a fixed draw per key.
    const std::size_t keys = kProfiles * kCPerProfile;
    double total = 0.0;
    for (std::size_t r = 0; r < keys; ++r) {
      const Profile& p = profiles_[r % kProfiles];
      catalog_c_.push_back(
          round_sig(p.scale * shape.log_uniform(kRelCLo, kRelCHi), 6));
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
      zipf_cdf_.push_back(total);
    }
    for (double& v : zipf_cdf_) v /= total;
  }
}

Request Generator::catalog_request(std::size_t key) const {
  Request r;
  r.life = profiles_[key % profiles_.size()].spec;
  r.c = catalog_c_[key];
  r.c_text = fmt(r.c);
  return r;
}

Request Generator::respelled(std::size_t key) {
  // Re-render every number of the spec in a fresh exact spelling; half of
  // the time start from the alternative parameter order / half-life form.
  Request r = catalog_request(key);
  const Profile& prof = profiles_[key % profiles_.size()];
  const std::string& src =
      !prof.alt_spec.empty() && rng_.below(2) == 0 ? prof.alt_spec : prof.spec;
  const std::size_t colon = src.find(':');
  std::string out = src.substr(0, colon + 1);
  for (std::size_t i = colon + 1; i < src.size();) {
    const bool starts_number = src[i] >= '0' && src[i] <= '9' &&
                               (src[i - 1] == '=' || src[i - 1] == ':' || src[i - 1] == ';');
    if (!starts_number) {
      out += src[i++];
      continue;
    }
    std::size_t end = i;
    while (end < src.size() && src[end] != ',' && src[end] != ';' && src[end] != ':') ++end;
    out += respell_number(std::strtod(src.c_str() + i, nullptr), rng_);
    i = end;
  }
  r.life = std::move(out);
  return r;
}

namespace {

Request at_fresh_c(const std::string& spec, double scale, Rng& rng) {
  Request r;
  r.life = spec;
  r.c = round_sig(scale * rng.log_uniform(kRelCLo, kRelCHi), 9);
  r.c_text = fmt(r.c, 9);
  return r;
}

}  // namespace

Request unique_request(const std::string& family, Rng& rng) {
  std::string spec, alt;
  double scale = 1.0;
  draw_profile(family, rng, &spec, &alt, &scale);
  return at_fresh_c(spec, scale, rng);
}

Request Generator::fresh_c(const Profile& p) { return at_fresh_c(p.spec, p.scale, rng_); }

Request Generator::next() {
  switch (workload_) {
    case Workload::HotMemo:
      return catalog_request(rng_.below(profiles_.size()));
    case Workload::ColdUnique:
      // Families in rotation (from a seeded start), so every window of the
      // run carries the same family mix; parameters are continuous draws.
      return unique_request(families()[rotation_++ % families().size()], rng_);
    case Workload::ZipfDrift:
      break;
  }
  const std::uint64_t roll = rng_.below(100);
  if (roll < kGreedyPct) {
    Request r = fresh_c(profiles_[rng_.below(profiles_.size())]);
    r.greedy = true;
    return r;
  }
  if (roll < kGreedyPct + kFreshCPct) return fresh_c(profiles_[rng_.below(kPopularProfiles)]);
  const auto it = std::upper_bound(zipf_cdf_.begin(), zipf_cdf_.end(), rng_.uniform01());
  const std::size_t key = std::min<std::size_t>(
      static_cast<std::size_t>(it - zipf_cdf_.begin()), zipf_cdf_.size() - 1);
  if (roll < kGreedyPct + kFreshCPct + kRespellPct) return respelled(key);
  return catalog_request(key);
}

std::vector<Request> Generator::warmup() const {
  const std::size_t n = workload_ == Workload::HotMemo     ? profiles_.size()
                        : workload_ == Workload::ZipfDrift ? kWarmCatalogKeys
                                                           : 0;
  std::vector<Request> out;
  for (std::size_t k = 0; k < n; ++k) out.push_back(catalog_request(k));
  return out;
}

}  // namespace pb

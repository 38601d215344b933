#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/guideline.hpp"
#include "core/t0_bounds.hpp"
#include "engine/atlas.hpp"
#include "engine/engine.hpp"
#include "engine/protocol.hpp"
#include "json_out.hpp"
#include "lifefn/factory.hpp"
#include "lifefn/families.hpp"
#include "numerics/rng.hpp"
#include "sim/task_bag.hpp"
#include "steal/farm_policy.hpp"
#include "loadgen.hpp"

namespace pb {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// In-memory span log: one span per call, parent by index, written at exit.
/// `label` qualifies a span (the life family of a core stage).
class SpanLog {
 public:
  struct Span {
    const char* name;
    const char* label;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::int64_t parent = -1;
  };

  SpanLog() { spans_.reserve(1 << 18); }

  std::int64_t open(const char* name, std::int64_t parent = -1,
                    const char* label = "") {
    spans_.push_back({name, label, 0, 0, parent});
    spans_.back().start = now_ns();
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void close(std::int64_t id) { at(id).end = now_ns(); }
  /// Re-name a span once its call has shown which kind it was.
  void rename(std::int64_t id, const char* name) { at(id).name = name; }
  [[nodiscard]] double duration_ns(std::int64_t id) {
    return static_cast<double>(at(id).end - at(id).start);
  }

  /// Self time of every span, grouped by "name" and by "name.label": its
  /// duration minus the time its children cover (children of one span never
  /// overlap: the replay is sequential).
  [[nodiscard]] std::map<std::string, std::vector<double>> self_by_name() const {
    // A span left open by a call that threw counts as zero time.
    const auto duration = [](const Span& s) {
      return s.end > s.start ? static_cast<double>(s.end - s.start) : 0.0;
    };
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = duration(spans_[i]);
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= duration(s);
    }
    std::map<std::string, std::vector<double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name].push_back(self[i]);
      if (*spans_[i].label != '\0')
        out[std::string(spans_[i].name) + "." + spans_[i].label].push_back(self[i]);
    }
    return out;
  }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  void write_jsonl(const std::string& path) const {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot write " + path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"label\":\""
         << s.label << "\",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end
         << ",\"parent\":" << s.parent << "}\n";
    }
  }

 private:
  Span& at(std::int64_t id) { return spans_[static_cast<std::size_t>(id)]; }
  std::vector<Span> spans_;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t k = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

/// A life function that forwards to another and counts the points at which
/// the solver evaluates p or p' (scalar calls, batch points, inversions).
class CountingLife final : public cs::LifeFunction {
 public:
  explicit CountingLife(const cs::LifeFunction& p) : p_(p) {}
  double survival(double t) const override {
    ++evals;
    return p_.survival(t);
  }
  double derivative(double t) const override {
    ++evals;
    return p_.derivative(t);
  }
  cs::Shape shape() const override { return p_.shape(); }
  std::optional<double> lifespan() const override { return p_.lifespan(); }
  std::string name() const override { return p_.name(); }
  std::string spec() const override { return p_.spec(); }
  std::unique_ptr<cs::LifeFunction> clone() const override {
    return std::make_unique<CountingLife>(p_);
  }
  bool has_exact_inverse() const noexcept override { return p_.has_exact_inverse(); }
  double inverse_survival(double u) const override {
    ++evals;
    return p_.inverse_survival(u);
  }

  mutable std::uint64_t evals = 0;

 protected:
  void eval_many_impl(const double* xs, double* out, std::size_t n) const override {
    evals += n;
    p_.eval_many({xs, n}, {out, n});
  }
  void deriv_many_impl(const double* xs, double* out, std::size_t n) const override {
    evals += n;
    p_.deriv_many({xs, n}, {out, n});
  }

 private:
  const cs::LifeFunction& p_;
};

/// Requests replayed in-process per workload: enough for stable medians,
/// few enough that cold solves finish in a few seconds.
std::size_t replay_count(Workload w) {
  switch (w) {
    case Workload::HotMemo: return 20000;
    case Workload::ColdUnique: return 400;
    case Workload::ZipfDrift: return 4000;
  }
  return 0;
}

constexpr std::size_t kCoreKeysPerFamily = 6;
/// Steal-farm bag: about 50x exp15's 12k-task sweep, so one drain takes
/// about 0.1 s of wall time on a 4-CPU host instead of a few milliseconds.
constexpr std::size_t kFarmTasks = 600000;
constexpr int kCoreReps = 3;

}  // namespace

void run_layers(const LayerOptions& opt, std::string& out) {
  namespace ce = cs::engine;
  SpanLog log;
  PhaseCount count;

  // ---- protocol + engine: replay the set-up list, then connection 0's
  // stream, through the functions the server calls per request.
  Generator gen(opt.workload, opt.seed, 1);
  std::vector<Request> replay = Generator(opt.workload, opt.seed, 0).warmup();
  for (std::size_t i = 0; i < replay_count(opt.workload); ++i) replay.push_back(gen.next());

  ce::EngineOptions eopt;
  const bool zipf = opt.workload == Workload::ZipfDrift;
  eopt.cache_capacity = zipf ? 1024 : 4096;
  eopt.atlas.enabled = zipf;
  ce::Engine engine(eopt);
  // A standalone atlas on every workload: atlas.* report what the tier costs
  // on the workload's keys, also where the server runs without it.
  ce::AtlasOptions aopt;
  aopt.enabled = true;
  ce::SolutionAtlas atlas(aopt, eopt.guideline);

  for (std::size_t i = 0; i < replay.size(); ++i) {
    const Request& r = replay[i];
    const std::string line = render_line(r, static_cast<std::int64_t>(i));
    const std::int64_t root = log.open("request");
    ++count.attempted;
    try {
      std::int64_t id = log.open("protocol.parse_request", root);
      const ce::WireRequest wreq = ce::parse_request_line(line);
      log.close(id);

      id = log.open("engine.canonicalize", root);
      const ce::CanonicalRequest creq = ce::canonicalize(wreq.solve);
      log.close(id);

      id = log.open("engine.cached", root);
      (void)engine.cached(creq.key);
      log.close(id);

      ce::SolveInfo info;
      id = log.open("engine.solve", root);
      const auto result = engine.solve(wreq.solve, &info);
      log.close(id);
      if (!result.ok()) {
        count.fail("engine.solve: " + result.error().message + " for " + line);
        log.close(root);
        continue;
      }

      // The hit paths, on every workload: probe and solve once more, now
      // that the answer is in the LRU.
      id = log.open("engine.cached_hit", root);
      (void)engine.cached(creq.key);
      log.close(id);
      id = log.open("engine.solve_lru_hit", root);
      (void)engine.solve(wreq.solve);
      log.close(id);

      const auto tier = info.tier == ce::SolveTier::Lru     ? ce::ServeTier::Lru
                        : info.tier == ce::SolveTier::Atlas ? ce::ServeTier::Atlas
                                                            : ce::ServeTier::Cold;

      id = log.open("protocol.render_head", root);
      std::string response =
          ce::make_response_head(wreq.version, wreq.id, true, wreq.trace_label()) +
          ce::make_tier_extras(wreq.version, tier, info.atlas_err);
      log.close(id);

      id = log.open("protocol.render_tail", root);
      response += ce::make_solve_response_tail(**result, info.cache_hit, wreq.max_periods);
      log.close(id);

      if (!r.greedy) {
        id = log.open("atlas.lookup", root);
        (void)atlas.lookup(creq.canonical_life, *creq.life, wreq.solve.c);
        log.close(id);
      }
    } catch (const std::exception& err) {
      count.fail(std::string("replay: ") + err.what());
    }
    log.close(root);
  }

  // ---- core: the cold-solve stages on the workload's own distinct keys,
  // topped up with seeded unique keys for families the workload lacks.
  std::map<std::string, std::vector<Request>> by_family;
  std::set<std::string> seen;
  for (const Request& r : replay) {
    if (r.greedy) continue;
    auto& keys = by_family[family_of(r.life)];
    if (keys.size() >= kCoreKeysPerFamily) continue;
    if (!seen.insert(cs::make_life_function(r.life)->spec() + "|" + r.c_text).second)
      continue;
    keys.push_back(r);
  }
  Rng top_up(opt.seed, 0xC0DE);
  for (const std::string& fam : families()) {
    auto& keys = by_family[fam];
    while (keys.size() < kCoreKeysPerFamily) keys.push_back(unique_request(fam, top_up));
  }
  std::map<std::string, std::vector<double>> evals;
  for (const std::string& fam : families()) {
    for (const Request& r : by_family[fam]) {
      const auto life = cs::make_life_function(r.life);
      try {
        for (int rep = 0; rep < kCoreReps; ++rep) {
          const std::int64_t root = log.open("core.solve", -1, fam.c_str());
          std::int64_t id = log.open("core.bracket", root, fam.c_str());
          const cs::T0Bracket b = cs::guideline_t0_bracket(*life, r.c);
          log.close(id);
          const cs::GuidelineScheduler sched(*life, r.c, cs::GuidelineOptions{}, b);
          id = log.open("core.search", root, fam.c_str());
          const cs::GuidelineResult g = sched.run();
          log.close(id);
          id = log.open("core.expand", root, fam.c_str());
          (void)sched.run_from_t0(g.chosen_t0);
          log.close(id);
          log.close(root);
        }
        CountingLife counting(*life);
        (void)cs::GuidelineScheduler(counting, r.c).run();
        evals[fam].push_back(static_cast<double>(counting.evals));
        evals[""].push_back(static_cast<double>(counting.evals));
      } catch (const std::exception& err) {
        count.fail("core " + r.life + ": " + err.what());
      }
    }
  }

  const auto self = log.self_by_name();
  const auto med = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : median(it->second);
  };
  JsonWriter j;
  j.begin_object();
  j.begin_object("metrics");
  j.field("protocol.parse_request_ns", med("protocol.parse_request"));
  j.field("protocol.render_head_ns", med("protocol.render_head"));
  j.field("protocol.render_tail_ns", med("protocol.render_tail"));
  j.field("engine.canonicalize_ns", med("engine.canonicalize"));
  j.field("engine.cached_hit_ns", med("engine.cached_hit"));
  j.field("engine.solve_lru_hit_ns", med("engine.solve_lru_hit"));
  j.field("atlas.lookup_ns", med("atlas.lookup"));
  const std::uint64_t cells = atlas.cells_built();
  j.field("atlas.cells_built", cells);
  j.field("atlas.served_per_cell",
          cells > 0 ? static_cast<double>(atlas.served()) / static_cast<double>(cells) : 0.0);
  for (const char* stage : {"bracket", "search", "expand"}) {
    const std::string name = std::string("core.") + stage;
    j.field((name + "_ns").c_str(), med(name));
    for (const std::string& fam : families())
      j.field((name + "_ns." + fam).c_str(), med(name + "." + fam));
  }
  j.field("core.p_evals_per_solve", median(evals[""]));
  for (const std::string& fam : families())
    j.field(("core.p_evals_per_solve." + fam).c_str(), median(evals[fam]));

  // ---- steal: drain a seeded bag (uniform L=240, c=2, steal latency 1).
  {
    const cs::UniformRisk life(240.0);
    cs::steal::RunInput in;
    in.life = &life;
    in.opt.workers = 4;
    in.opt.tier_size = 4;
    in.opt.c = 2.0;
    in.opt.mean_busy_gap = 40.0;
    in.opt.steal_batch = 8;
    in.opt.steal_latency = 1.0;
    in.opt.seed = opt.seed;
    cs::num::RandomStream rng(opt.seed);
    cs::sim::TaskProfile profile;
    profile.kind = cs::sim::TaskProfile::Kind::Uniform;
    profile.mean = 0.5;
    profile.spread = 0.5;
    in.tasks = cs::sim::generate_task_durations(kFarmTasks, profile, rng);
    const std::int64_t id = log.open("steal.run");
    const cs::steal::RunResult res = cs::steal::make_steal_runtime()->run(in);
    log.close(id);
    ++count.attempted;
    if (!res.drained || res.aborted || res.tasks_banked != in.tasks.size())
      count.fail("steal farm did not drain the bag exactly");
    std::uint64_t attempts = 0, declined = 0;
    double idle = 0.0, vtime = 0.0;
    for (const auto& w : res.workers) {
      attempts += w.steals_attempted;
      declined += w.steals_declined;
      idle += w.idle_vtime;
      vtime += w.vtime;
    }
    const auto tasks = static_cast<double>(in.tasks.size());
    j.field("steal.success_rate", res.steal_success_rate());
    j.field("steal.attempts_per_task", static_cast<double>(attempts) / tasks);
    j.field("steal.declined_frac", attempts > 0 ? static_cast<double>(declined) /
                                                      static_cast<double>(attempts)
                                                : 0.0);
    j.field("steal.ring_rounds", res.ring_rounds);
    j.field("steal.idle_vtime_frac", vtime > 0.0 ? idle / vtime : 0.0);
    j.field("steal.work_lost_frac", res.work_lost / (res.work_banked + res.work_lost));
    j.field("steal.wall_s", log.duration_ns(id) * 1e-9);
    j.field("steal.work_per_vtime", res.throughput());
  }
  j.end_object();

  j.begin_object("checks");
  j.field("attempted", count.attempted);
  j.field("failed", count.failed);
  j.begin_array("failures");
  for (const auto& f : count.failures) j.item(f);
  j.end_array();
  j.end_object();
  j.field("spans", static_cast<std::uint64_t>(log.size()));
  j.end_object();
  out = j.str();
  if (!opt.spans_out.empty()) log.write_jsonl(opt.spans_out);
}

void atlas_check(std::uint64_t seed, std::string& out) {
  constexpr int kProfilesPerFamily = 16;
  constexpr int kLookupsPerProfile = 15;
  JsonWriter j;
  j.begin_object();
  for (const std::string& fam : families()) {
    Rng rng(seed, 77);
    cs::engine::AtlasOptions ao;
    ao.enabled = true;
    cs::engine::SolutionAtlas atlas(ao, cs::GuidelineOptions{});
    std::uint64_t lookups = 0, served = 0, outside = 0;
    double worst = 0.0;
    for (int i = 0; i < kProfilesPerFamily; ++i) {
      std::string spec, alt;
      double scale = 1.0;
      draw_profile(fam, rng, &spec, &alt, &scale);
      const auto p = cs::make_life_function(spec);
      for (int k = 0; k < kLookupsPerProfile; ++k) {
        const double c = scale * rng.log_uniform(0.002, 0.02);
        ++lookups;
        const auto a = atlas.lookup(p->spec(), *p, c);
        if (!a) continue;
        ++served;
        const double direct = cs::GuidelineScheduler(*p, c).run().expected;
        const double shortfall = (direct - a->result.expected) / direct;
        worst = std::max(worst, shortfall / a->err_bound);
        if (shortfall > a->err_bound) ++outside;
      }
    }
    j.begin_object(fam.c_str());
    j.field("lookups", lookups);
    j.field("served", served);
    j.field("outside_bound", outside);
    j.field("worst_shortfall_over_bound", worst);
    j.end_object();
  }
  j.end_object();
  out = j.str();
}

}  // namespace pb

// pb_harness — the compiled half of perfbench (perfbench/run.py drives it).
//
//   pb_harness info                                  build type of this binary
//   pb_harness flags  --workload W                   csserve flags for W
//   pb_harness gen    --workload W --seed S --count N
//                                                    hash of the request stream
//   pb_harness warm   --workload W --seed S --port P set-up warm-up
//   pb_harness load   --workload W --seed S --port P --closed-s X --open-s Y
//                     --rate R [--window-s T]        open + closed loop
//   pb_harness layers --workload W --seed S [--spans-out F]
//                                                    traced in-process replay
//   pb_harness atlas-check [--seed S]                atlas answers vs direct
//                                                    solves, per family
//
// Every command prints one JSON object on stdout.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "json_out.hpp"
#include "layers.hpp"
#include "loadgen.hpp"
#include "workloads.hpp"

namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> values;
  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  [[nodiscard]] std::string need(const std::string& key) const {
    const auto it = values.find(key);
    if (it == values.end()) throw std::invalid_argument("missing --" + key);
    return it->second;
  }
  [[nodiscard]] double number(const std::string& key, double fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : std::stod(it->second);
  }
};

Args parse(int argc, char** argv) {
  Args args;
  if (argc < 2) throw std::invalid_argument("missing command");
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::invalid_argument("unexpected '" + key + "'");
    key = key.substr(2);
    if (i + 1 >= argc) throw std::invalid_argument("missing value for --" + key);
    args.values[key] = argv[++i];
  }
  return args;
}

void write_phase(const pb::PhaseCount& c) {
  pb::JsonWriter j;
  j.begin_object();
  j.field("attempted", c.attempted);
  j.field("failed", c.failed);
  j.begin_array("failures");
  for (const auto& f : c.failures) j.item(f);
  j.end_array();
  j.end_object();
  std::cout << j.str() << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    if (args.command == "info") {
#ifdef NDEBUG
      std::cout << "{\"build_type\":\"optimized\"}\n";
#else
      std::cout << "{\"build_type\":\"debug\"}\n";
#endif
      return 0;
    }
    const auto seed = static_cast<std::uint64_t>(std::stoull(args.get("seed", "1")));
    if (args.command == "atlas-check") {
      std::string out;
      pb::atlas_check(seed, out);
      std::cout << out << '\n';
      return 0;
    }
    const pb::Workload w = pb::parse_workload(args.need("workload"));
    if (args.command == "flags") {
      pb::JsonWriter j;
      j.begin_object();
      j.begin_array("flags");
      for (const auto& f : pb::server_flags(w)) j.item(f);
      j.end_array();
      j.end_object();
      std::cout << j.str() << '\n';
      return 0;
    }
    if (args.command == "gen") {
      // FNV-1a over the first N lines of the warm-up list and of the four
      // load-generator streams (two closed-loop, two open-loop connections).
      const auto n = static_cast<std::size_t>(args.number("count", 1000));
      std::uint64_t h = 0xcbf29ce484222325ULL;
      const auto mix = [&](const std::string& line) {
        for (const char ch : line) {
          h ^= static_cast<unsigned char>(ch);
          h *= 0x100000001b3ULL;
        }
      };
      for (const auto& r : pb::Generator(w, seed, 0).warmup()) mix(pb::render_line(r, 0));
      for (std::uint64_t stream = 1; stream <= 4; ++stream) {
        pb::Generator gen(w, seed, stream);
        for (std::size_t i = 0; i < n; ++i) mix(pb::render_line(gen.next(), 0));
      }
      char buf[32];
      std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
      std::cout << "{\"hash\":\"" << buf << "\",\"count\":" << n << "}\n";
      return 0;
    }
    if (args.command == "layers") {
      pb::LayerOptions opt;
      opt.workload = w;
      opt.seed = seed;
      opt.spans_out = args.get("spans-out", "");
      std::string out;
      pb::run_layers(opt, out);
      std::cout << out << '\n';
      return 0;
    }
    pb::LoadOptions opt;
    opt.workload = w;
    opt.seed = seed;
    opt.port = static_cast<std::uint16_t>(std::stoul(args.need("port")));
    if (args.command == "warm") {
      write_phase(pb::warm_up(opt));
      return 0;
    }
    if (args.command == "load") {
      opt.closed_s = args.number("closed-s", 1.0);
      opt.open_s = args.number("open-s", 1.0);
      opt.rate = args.number("rate", 1000.0);
      opt.window_s = args.number("window-s", opt.window_s);
      std::string out;
      pb::run_load(opt, out);
      std::cout << out << '\n';
      return 0;
    }
    throw std::invalid_argument("unknown command '" + args.command + "'");
  } catch (const std::exception& err) {
    std::cerr << "pb_harness: " << err.what() << '\n';
    return 1;
  }
}

#include "loadgen.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "core/greedy.hpp"
#include "core/guideline.hpp"
#include "engine/protocol.hpp"
#include "json_out.hpp"
#include "lifefn/factory.hpp"

namespace pb {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// One blocking TCP connection to the server with a line reader.  Sending
/// and receiving may run on two threads at once (the open loop does).
class Conn {
 public:
  explicit Conn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      const std::string why = std::strerror(errno);
      ::close(fd_);
      throw std::runtime_error("connect: " + why);
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    timeval tv{};
    tv.tv_sec = 20;  // a reply this late means the server hung
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void send_line(std::string& line) {
    line += '\n';
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t n = ::send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("send: " + std::string(std::strerror(errno)));
      }
      off += static_cast<std::size_t>(n);
    }
  }

  /// Next response line (without '\n'); throws on EOF or timeout.  With
  /// `spin`, polls the socket instead of sleeping in recv().
  std::string_view read_line(bool spin = false) {
    while (true) {
      const std::size_t nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        const std::string_view line(buf_.data() + pos_, nl - pos_);
        pos_ = nl + 1;
        return line;
      }
      if (pos_ > 0) {
        buf_.erase(0, pos_);
        pos_ = 0;
      }
      char chunk[16384];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, spin ? MSG_DONTWAIT : 0);
      if (n == 0) throw std::runtime_error("server closed the connection");
      if (n < 0) {
        if (errno == EINTR) continue;
        if (spin && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          spin_wait();
          continue;
        }
        throw std::runtime_error("recv: " + std::string(std::strerror(errno)));
      }
      buf_.append(chunk, static_cast<std::size_t>(n));
      spins_ = 0;
    }
  }

 private:
  /// One empty poll of a spinning read; throws once the reply is as late as
  /// the blocking read's timeout.
  void spin_wait() {
    if (++spins_ % 4096 != 0) return;
    const auto now = std::chrono::steady_clock::now();
    if (spins_ == 4096) spin_since_ = now;
    if (now - spin_since_ > std::chrono::seconds(20))
      throw std::runtime_error("recv: no reply within 20 s");
  }

  int fd_ = -1;
  std::string buf_;
  std::size_t pos_ = 0;
  std::uint64_t spins_ = 0;
  std::chrono::steady_clock::time_point spin_since_;
};

/// Index into kTiers of the response's `tier` field, or -1.
int tier_of(std::string_view response) {
  const std::size_t at = response.find("\"tier\":\"");
  if (at == std::string_view::npos) return -1;
  const std::string_view rest = response.substr(at + 8);
  for (std::size_t i = 0; i < kTiers.size(); ++i) {
    const std::string_view name = kTiers[i];
    if (rest.size() > name.size() && rest.substr(0, name.size()) == name &&
        rest[name.size()] == '"')
      return static_cast<int>(i);
  }
  return -1;
}

std::int64_t id_of(std::string_view response) {
  const std::size_t at = response.find("\"id\":");
  if (at == std::string_view::npos) return -1;
  return std::strtoll(response.data() + at + 5, nullptr, 10);
}

/// Cheap per-response check: a successful v2 solve answer carrying `id` and
/// a known tier.  Returns the tier index, or -1 after recording a failure.
int quick_check(std::string_view response, std::int64_t id, PhaseCount& count) {
  const int tier = tier_of(response);
  if (response.find("\"ok\":true") == std::string_view::npos || tier < 0 ||
      id_of(response) != id) {
    count.fail("bad response to id " + std::to_string(id) + ": " +
               std::string(response.substr(0, 200)));
    return -1;
  }
  return tier;
}

/// Pin the calling thread to the k-th CPU (modulo) the process may use, so
/// each connection's thread stays on its own CPU for the whole run.  Left to
/// the scheduler, the placement changed from run to run and moved hot_memo's
/// closed-loop throughput by up to 20% between runs of one seed.
void pin_to_cpu(std::size_t k) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[k % cpus.size()], &one);
  ::pthread_setaffinity_np(::pthread_self(), sizeof one, &one);
}

void sleep_until_ns(std::uint64_t due) {
  const std::uint64_t now = now_ns();
  if (due <= now) return;
  std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(v.size()) - 1.0,
                       std::floor(q * static_cast<double>(v.size()))));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

/// Steal share up to which a window counts as clean.
constexpr double kCleanSteal = 0.01;

/// Indices of the windows in which the hypervisor stole little CPU from this
/// guest: every window at or below kCleanSteal, or, when fewer than half are,
/// the half with the least steal.  On a shared host, windows where other
/// guests took the CPUs measure the neighbours, not the program.
std::vector<std::size_t> clean_windows(const std::vector<double>& steal) {
  std::vector<std::size_t> order(steal.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return steal[a] < steal[b]; });
  std::size_t keep = (order.size() + 1) / 2;
  while (keep < order.size() && steal[order[keep]] <= kCleanSteal) ++keep;
  order.resize(keep);
  return order;
}

/// Raw `stats` verb response (a JSON object) over `conn`.
std::string stats_verb(Conn& conn) {
  std::string line = "{\"v\":2,\"id\":-7,\"cmd\":\"stats\"}";
  conn.send_line(line);
  return std::string(conn.read_line());
}

constexpr std::int64_t kOpenIdBase = 1'000'000'000;
/// Closed-loop answers kept per tier and connection for check_samples().
constexpr std::size_t kSamplesPerTier = 24;

/// Samples the host's CPU steal ticks (/proc/stat) at every window boundary
/// of a phase, so each window's figure can be read next to how much CPU the
/// hypervisor gave to other guests meanwhile.
class StealSampler {
 public:
  StealSampler(std::uint64_t start_ns, double window_s, std::size_t windows)
      : thread_([this, start_ns, window_s, windows] {
          for (std::size_t w = 0; w <= windows && !stop_.load(); ++w) {
            sleep_until_ns(start_ns + static_cast<std::uint64_t>(
                                          static_cast<double>(w) * window_s * 1e9));
            samples_.push_back(read());
          }
        }) {}
  ~StealSampler() { join(); }
  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;

  /// Steal share of each completed window.
  std::vector<double> shares() {
    join();
    std::vector<double> out;
    for (std::size_t i = 1; i < samples_.size(); ++i) {
      const double total = samples_[i].second - samples_[i - 1].second;
      out.push_back(total > 0 ? (samples_[i].first - samples_[i - 1].first) / total : 0.0);
    }
    return out;
  }

 private:
  static std::pair<double, double> read() {
    std::FILE* f = std::fopen("/proc/stat", "r");
    if (f == nullptr) return {0.0, 0.0};
    unsigned long long v[8] = {};
    const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                              &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
    std::fclose(f);
    if (n != 8) return {0.0, 0.0};
    double total = 0.0;
    for (const auto x : v) total += static_cast<double>(x);
    return {static_cast<double>(v[7]), total};
  }
  void join() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  std::atomic<bool> stop_{false};
  std::vector<std::pair<double, double>> samples_;
  std::thread thread_;
};

std::size_t window_of(const LoadOptions& opt, std::uint64_t start_ns, std::uint64_t t) {
  return static_cast<std::size_t>(static_cast<double>(t - start_ns) * 1e-9 / opt.window_s);
}

/// Closed loop on one connection from `start_ns` until `end_ns`.  The reply
/// is awaited by polling: the thread owns its CPU (pin_to_cpu), and a vCPU
/// that halts between replies adds a wake-up of varying cost to every
/// request, which made hot_memo's throughput the noisiest figure.
void closed_loop(const LoadOptions& opt, Conn& conn, std::size_t k,
                 std::uint64_t start_ns, std::uint64_t end_ns, ClosedResult& out) {
  Generator gen(opt.workload, opt.seed, 1 + k);
  Rng pick(opt.seed, 100 + k);
  std::array<std::uint64_t, 4> seen{};
  std::array<std::vector<Sample>, 4> reservoir;
  std::uint64_t i = 0;
  for (std::uint64_t t = now_ns(); t < end_ns;) {
    const Request req = gen.next();
    const auto id = static_cast<std::int64_t>(k + kConnections * i++);
    std::string line = render_line(req, id);
    conn.send_line(line);
    const std::string_view resp = conn.read_line(/*spin=*/true);
    t = now_ns();
    ++out.count.attempted;
    const int tier = quick_check(resp, id, out.count);
    if (tier < 0) continue;
    const std::size_t w = window_of(opt, start_ns, t);
    if (out.window_done.size() <= w) out.window_done.resize(w + 1);
    ++out.window_done[w];
    ++out.tiers.n[static_cast<std::size_t>(tier)];
    // Reservoir sample per tier, so every tier present gets checked.
    auto& res = reservoir[static_cast<std::size_t>(tier)];
    const std::uint64_t n = ++seen[static_cast<std::size_t>(tier)];
    if (res.size() < kSamplesPerTier) {
      res.push_back({req, std::string(resp)});
    } else {
      const std::uint64_t slot = pick.below(n);
      if (slot < res.size()) res[slot] = {req, std::string(resp)};
    }
  }
  for (auto& res : reservoir)
    for (auto& s : res) out.samples.push_back(std::move(s));
}

struct OpenConnResult {
  PhaseCount count;
  std::vector<double> latency_us;
  std::vector<std::size_t> window;  ///< per latency: window of its due time
  std::vector<double> late_us;
  TierCounts tiers;
};

/// Open loop on one connection: a sender on a fixed schedule and a
/// receiver matching replies by id, so a slow reply never delays a send.
/// Latency runs from each request's intended send time.
void open_loop(const LoadOptions& opt, Conn& conn, std::size_t k,
               std::uint64_t start_ns, std::uint64_t end_ns,
               OpenConnResult& out) {
  const double gap = 1e9 * static_cast<double>(kConnections) / opt.rate;
  const double offset = gap * static_cast<double>(k) /
                        static_cast<double>(kConnections);
  const auto due = [&](std::uint64_t i) {
    return start_ns + static_cast<std::uint64_t>(offset + gap * static_cast<double>(i));
  };
  std::uint64_t total = 0;
  while (due(total) < end_ns) ++total;
  out.latency_us.reserve(total);
  out.late_us.reserve(total);
  std::string receive_error;

  std::thread receiver([&] {
    try {
      for (std::uint64_t got = 0; got < total; ++got) {
        const std::string_view resp = conn.read_line();
        const std::uint64_t t = now_ns();
        const std::int64_t id = id_of(resp);
        const std::int64_t rel = id - kOpenIdBase - static_cast<std::int64_t>(k);
        const auto conns = static_cast<std::int64_t>(kConnections);
        const auto local = static_cast<std::uint64_t>(rel / conns);
        if (rel < 0 || rel % conns != 0 || local >= total) {
          out.count.fail("open loop: reply with an id never sent: " + std::string(resp.substr(0, 200)));
          continue;
        }
        const int tier = quick_check(resp, id, out.count);
        if (tier < 0) continue;
        ++out.tiers.n[static_cast<std::size_t>(tier)];
        out.latency_us.push_back(static_cast<double>(t - due(local)) * 1e-3);
        out.window.push_back(window_of(opt, start_ns, due(local)));
      }
    } catch (const std::exception& err) {
      receive_error = err.what();
    }
  });

  // Timer slack bounds how late a sleep may wake; the default (50 us) would
  // dominate the schedule error at these rates.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  Generator gen(opt.workload, opt.seed, 1 + kConnections + k);
  std::string send_error;
  for (std::uint64_t i = 0; i < total; ++i) {
    const Request req = gen.next();
    const auto id = kOpenIdBase + static_cast<std::int64_t>(k + kConnections * i);
    std::string line = render_line(req, id);
    const std::uint64_t t_due = due(i);
    sleep_until_ns(t_due);
    const std::uint64_t t_send = now_ns();
    try {
      conn.send_line(line);
    } catch (const std::exception& err) {
      send_error = err.what();
      break;
    }
    out.late_us.push_back(static_cast<double>(t_send - t_due) * 1e-3);
  }
  receiver.join();  // a send failure leaves it to its receive timeout
  // Every request is one operation: answered well, answered badly (already
  // counted by quick_check), or never answered.
  out.count.attempted += total;
  const std::uint64_t unanswered =
      total - out.latency_us.size() - out.count.failed;
  if (unanswered > 0) {
    out.count.fail("open loop: " + std::to_string(unanswered) +
                   " requests unanswered (send: " + send_error +
                   "; receive: " + receive_error + ")");
    out.count.failed += unanswered - 1;
  }
}

void write_tiers(JsonWriter& j, const char* key, const TierCounts& t) {
  j.begin_object(key);
  for (std::size_t i = 0; i < kTiers.size(); ++i) j.field(kTiers[i], t.n[i]);
  j.end_object();
}

void write_count(JsonWriter& j, const PhaseCount& c) {
  j.field("attempted", c.attempted);
  j.field("failed", c.failed);
  j.begin_array("failures");
  for (const auto& f : c.failures) j.item(f);
  j.end_array();
}

}  // namespace

void PhaseCount::fail(std::string why) {
  ++failed;
  if (failures.size() < 5) failures.push_back(std::move(why));
}

void PhaseCount::add(const PhaseCount& o) {
  attempted += o.attempted;
  failed += o.failed;
  for (const auto& f : o.failures)
    if (failures.size() < 5) failures.push_back(f);
}

PhaseCount warm_up(const LoadOptions& opt) {
  const std::vector<Request> list = Generator(opt.workload, opt.seed, 0).warmup();
  std::vector<PhaseCount> counts(kConnections);
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < kConnections; ++k) {
    threads.emplace_back([&, k] {
      PhaseCount& count = counts[k];
      try {
        Conn conn(opt.port);
        std::string ping = "{\"v\":2,\"id\":0,\"cmd\":\"ping\"}";
        conn.send_line(ping);
        ++count.attempted;
        if (conn.read_line().find("\"pong\":true") == std::string_view::npos)
          count.fail("ping failed");
        std::int64_t id = 1;
        for (int pass = 0; pass < 2; ++pass) {
          for (const Request& r : list) {
            std::string line = render_line(r, id);
            conn.send_line(line);
            ++count.attempted;
            (void)quick_check(conn.read_line(), id, count);
            ++id;
          }
        }
      } catch (const std::exception& err) {
        count.fail(std::string("warm-up: ") + err.what());
      }
    });
  }
  for (auto& t : threads) t.join();
  PhaseCount total;
  for (const auto& c : counts) total.add(c);
  return total;
}

namespace {

std::size_t full_windows(const LoadOptions& opt, double seconds) {
  return static_cast<std::size_t>(seconds / opt.window_s + 1e-9);
}

/// Open loop on every connection.  p50 pools the latencies of the clean
/// windows (clean_windows); p99 is over the whole phase.
OpenResult open_phase(const LoadOptions& opt, std::vector<std::unique_ptr<Conn>>& conns) {
  std::vector<OpenConnResult> open(kConnections);
  const std::uint64_t o0 = now_ns() + 2'000'000;
  const std::uint64_t o_end = o0 + static_cast<std::uint64_t>(opt.open_s * 1e9);
  StealSampler steal(o0, opt.window_s, full_windows(opt, opt.open_s));
  {
    std::vector<std::thread> threads;
    for (std::size_t k = 0; k < kConnections; ++k)
      threads.emplace_back([&, k] {
        pin_to_cpu(k);
        open_loop(opt, *conns[k], k, o0, o_end, open[k]);
      });
    for (auto& t : threads) t.join();
  }
  OpenResult op;
  op.window_steal = steal.shares();
  op.rate = opt.rate;
  std::vector<double> lat, late;
  std::vector<std::vector<double>> by_window(full_windows(opt, opt.open_s));
  for (auto& o : open) {
    op.count.add(o.count);
    op.tiers.add(o.tiers);
    lat.insert(lat.end(), o.latency_us.begin(), o.latency_us.end());
    late.insert(late.end(), o.late_us.begin(), o.late_us.end());
    for (std::size_t i = 0; i < o.latency_us.size(); ++i) {
      if (o.window[i] < by_window.size()) by_window[o.window[i]].push_back(o.latency_us[i]);
    }
  }
  op.latencies = lat.size();
  op.p99_us = quantile(lat, 0.99);
  op.late_p99_us = quantile(late, 0.99);
  for (auto& w : by_window) op.window_p50_us.push_back(quantile(w, 0.50));
  std::vector<double> pooled;
  for (const std::size_t w : clean_windows(op.window_steal)) {
    if (w < by_window.size()) pooled.insert(pooled.end(), by_window[w].begin(), by_window[w].end());
  }
  op.p50_us = quantile(pooled, 0.50);
  return op;
}

/// Closed loop on every connection; throughput is the mean rate over the
/// clean windows after the first.
ClosedResult closed_phase(const LoadOptions& opt, std::vector<std::unique_ptr<Conn>>& conns) {
  std::vector<ClosedResult> closed(kConnections);
  std::vector<std::string> errors(kConnections);
  const std::uint64_t c0 = now_ns();
  const std::uint64_t c_end = c0 + static_cast<std::uint64_t>(opt.closed_s * 1e9);
  StealSampler steal(c0, opt.window_s, full_windows(opt, opt.closed_s));
  {
    std::vector<std::thread> threads;
    for (std::size_t k = 0; k < kConnections; ++k) {
      threads.emplace_back([&, k] {
        pin_to_cpu(k);
        try {
          closed_loop(opt, *conns[k], k, c0, c_end, closed[k]);
        } catch (const std::exception& err) {
          errors[k] = err.what();
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  ClosedResult cl;
  cl.seconds = static_cast<double>(now_ns() - c0) * 1e-9;
  cl.window_steal = steal.shares();
  const std::size_t cw = full_windows(opt, opt.closed_s);
  std::vector<double> window_done(cw, 0.0);
  for (std::size_t k = 0; k < kConnections; ++k) {
    cl.count.add(closed[k].count);
    if (!errors[k].empty()) cl.count.fail("closed loop: " + errors[k]);
    cl.tiers.add(closed[k].tiers);
    for (auto& s : closed[k].samples) cl.samples.push_back(std::move(s));
    for (std::size_t w = 0; w < cw && w < closed[k].window_done.size(); ++w)
      window_done[w] += static_cast<double>(closed[k].window_done[w]);
  }
  cl.throughput_total_rps = static_cast<double>(cl.count.attempted - cl.count.failed) /
                            cl.seconds;
  // Mean over full windows, the first one (connection warm-in) left out.
  // Host-steal windows are already dropped, so the mean uses every answer
  // the rest hold; the median of cold_unique's four 2-s windows spread half
  // as much again between runs.
  if (cw >= 3) {
    std::vector<double> rates(window_done.begin() + 1, window_done.end());
    for (double& r : rates) r /= opt.window_s;
    cl.window_rps = rates;
    const std::vector<double> steals(cl.window_steal.begin() + 1, cl.window_steal.end());
    const std::vector<std::size_t> kept = clean_windows(steals);
    double sum = 0.0;
    for (const std::size_t w : kept) sum += rates[w];
    cl.throughput_rps = sum / static_cast<double>(kept.size());
  } else {
    cl.throughput_rps = cl.throughput_total_rps;
  }
  return cl;
}

}  // namespace

void run_load(const LoadOptions& opt, std::string& out) {
  std::vector<std::unique_ptr<Conn>> conns;
  for (std::size_t k = 0; k < kConnections; ++k)
    conns.push_back(std::make_unique<Conn>(opt.port));
  // The open loop runs first: it sends a fixed number of requests, so the
  // cache, memo and atlas state it sees depends on the seed alone, never on
  // how many requests a faster or slower closed loop pushed through first.
  const std::string stats_before = stats_verb(*conns[0]);
  const OpenResult op = open_phase(opt, conns);
  ClosedResult cl = closed_phase(opt, conns);
  const std::string stats_after = stats_verb(*conns[0]);
  const PhaseCount checks = check_samples(cl.samples);

  JsonWriter j;
  j.begin_object();
  j.begin_object("closed");
  write_count(j, cl.count);
  j.field("seconds", cl.seconds);
  j.field("throughput_rps", cl.throughput_rps);
  j.field("throughput_total_rps", cl.throughput_total_rps);
  write_tiers(j, "tiers", cl.tiers);
  j.array("window_rps", cl.window_rps);
  j.array("window_steal", cl.window_steal);
  j.end_object();
  j.begin_object("open");
  write_count(j, op.count);
  j.field("rate", op.rate);
  j.field("latencies", op.latencies);
  j.field("p50_us", op.p50_us);
  j.field("p99_us", op.p99_us);
  j.field("late_p99_us", op.late_p99_us);
  write_tiers(j, "tiers", op.tiers);
  j.array("window_p50_us", op.window_p50_us);
  j.array("window_steal", op.window_steal);
  j.end_object();
  j.begin_object("checks");
  write_count(j, checks);
  j.end_object();
  j.raw("stats_before", stats_before);
  j.raw("stats_after", stats_after);
  j.end_object();
  out = j.str();
}

PhaseCount check_samples(const std::vector<Sample>& samples) {
  PhaseCount count;
  for (const Sample& s : samples) {
    ++count.attempted;
    try {
      const auto res = cs::engine::parse_response_line(s.response);
      const auto num = [&](const char* key) -> std::optional<double> {
        const auto it = res.fields.find(key);
        if (it == res.fields.end() ||
            it->second.type != cs::engine::json::Value::Type::Number)
          return std::nullopt;
        return it->second.number;
      };
      const auto expected = num("expected");
      const auto periods = num("num_periods");
      if (!res.ok || !expected || !periods) {
        count.fail("unparseable answer: " + s.response.substr(0, 200));
        continue;
      }
      const auto life = cs::make_life_function(s.request.life);
      const double c = std::strtod(s.request.c_text.c_str(), nullptr);
      std::string why;
      if (s.request.greedy) {
        const auto g = cs::greedy_schedule(*life, c);
        if (*expected != g.expected ||
            *periods != static_cast<double>(g.schedule.size()))
          why = "greedy answer differs from a direct solve";
      } else {
        const auto g = cs::GuidelineScheduler(*life, c).run();
        if (const auto bound = num("atlas_err")) {
          // The bound is printed to 3 significant digits; allow its rounding.
          const double tol = *bound * 1.006 * std::fabs(g.expected) + 1e-12;
          if (!(std::fabs(*expected - g.expected) <= tol) || *periods < 1)
            why = "atlas answer outside its advertised bound";
        } else if (*expected != g.expected ||
                   num("t0").value_or(-1.0) != g.chosen_t0 ||
                   *periods != static_cast<double>(g.schedule.size())) {
          why = "answer differs from a direct solve";
        }
      }
      if (!why.empty()) {
        count.fail(why + ": " + render_line(s.request, 0) + " -> " +
                   s.response.substr(0, 300));
      }
    } catch (const std::exception& err) {
      count.fail(std::string("check: ") + err.what());
    }
  }
  return count;
}

}  // namespace pb

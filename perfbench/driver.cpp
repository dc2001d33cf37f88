// perfbench driver: runs one benchmark workload through the library's public
// API and streams raw records as JSON lines on stdout; perfbench/run.py
// reduces them to metrics and checks them (see perfbench/README.md).
//
//   perfbench_driver --workload scheme_grid --seed 1 --seconds 20
//                    [--trace-out trace.json]
//
// Phases: set up the workload's world several times (each one timed; the
// last of those worlds replays round 0 for the determinism check), run
// round 0 on a new world as the warm-up, then run the measured rounds: a
// fixed count that takes about --seconds on the reference host
// (WorkloadSpec). A round
// is the workload's fixed unit of work: every scheme's window on
// scheme_grid, ten windows on city_coexist, one measure/upgrade/verify
// cycle on capacity_upgrade.
//
// With --trace-out, spans are recorded around each public call (never
// inside the library), kept in memory, and written at exit as Chrome
// trace-event JSON. Odd measured rounds are traced, even ones are not, so
// one run also yields the tracing overhead.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "baselines/registry.hpp"
#include "baselines/standard_lorawan.hpp"
#include "check/digest.hpp"
#include "common/parallel.hpp"
#include "core/controller.hpp"
#include "core/log_parser.hpp"
#include "core/traffic_estimator.hpp"
#include "sim/scenario.hpp"
#include "sim/traffic.hpp"

using namespace alphawan;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() - kEpoch)
      .count();
}

// ---- tracing ---------------------------------------------------------------

struct SpanRecord {
  std::string name;
  std::string scheme;
  std::int64_t op = -1;
  int parent = -1;
  double start_us = 0;
  double end_us = 0;
};

// In-memory span store. Spans are opened and closed on the driver's own
// thread only (the library's worker threads run inside the calls), so a
// stack gives each span its parent.
class Tracer {
 public:
  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  int open(std::string_view name, std::string_view scheme, std::int64_t op) {
    if (!enabled_) return -1;
    SpanRecord span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    const SpanRecord* parent =
        span.parent >= 0 ? &spans_[static_cast<std::size_t>(span.parent)]
                         : nullptr;
    span.scheme = !scheme.empty() ? std::string(scheme)
                  : parent != nullptr ? parent->scheme
                                      : std::string();
    span.op = op >= 0 ? op : parent != nullptr ? parent->op : -1;
    span.start_us = now_us();
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }

  void close(int index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_us = now_us();
    stack_.pop_back();
  }

  // Chrome trace-event JSON (complete "X" events), loadable in Perfetto.
  bool write_chrome(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(out,
                   "{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"span\": %zu, \"parent\": %d, \"op\": %lld, "
                   "\"scheme\": \"%s\"}}%s\n",
                   s.name.c_str(), s.start_us, s.end_us - s.start_us, i,
                   s.parent, static_cast<long long>(s.op), s.scheme.c_str(),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
  }

 private:
  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

Tracer tracer;

class Span {
 public:
  explicit Span(std::string_view name, std::string_view scheme = {},
                std::int64_t op = -1)
      : index_(tracer.open(name, scheme, op)) {}
  ~Span() { tracer.close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_;
};

// ---- records ---------------------------------------------------------------

double cpu_seconds() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

constexpr LossCause kLossCauses[] = {
    LossCause::kDecoderContentionIntra, LossCause::kDecoderContentionInter,
    LossCause::kChannelContentionIntra, LossCause::kChannelContentionInter,
    LossCause::kOther};

struct Totals {
  std::size_t offered = 0;
  std::size_t delivered = 0;
  std::size_t losses[std::size(kLossCauses)] = {};
  std::size_t uplinks = 0;
  std::size_t server_delivered = 0;
};

Totals snapshot(const MetricsCollector& metrics, const Deployment& deployment) {
  Totals t;
  t.offered = metrics.total_offered();
  t.delivered = metrics.total_delivered();
  for (std::size_t c = 0; c < std::size(kLossCauses); ++c) {
    t.losses[c] = metrics.losses(kLossCauses[c]);
  }
  for (const Network& net : deployment.networks()) {
    t.uplinks += net.server().log().size();
    t.server_delivered += net.server().delivered_packets();
  }
  return t;
}

// One window through the whole per-window pipeline: traffic generation,
// MAC shaping, run_window (receive, network-server ingest, metrics).
struct WindowRecord {
  std::int64_t id = 0;
  int round = 0;
  std::string scheme;
  double ms = 0;
  std::size_t generated = 0;
  std::size_t shaped = 0;
  std::size_t deferred = 0;  // only counted on traced rounds
  std::size_t fates = 0;
  std::size_t result_offered = 0;
  std::size_t result_delivered = 0;
  Totals delta;
  std::uint64_t digest = 0;
  std::size_t resident_rows = 0;
  std::size_t boundary_events = 0;
};

void emit_window(const char* phase, const WindowRecord& w) {
  const Totals& d = w.delta;
  std::printf(
      "{\"type\": \"window\", \"phase\": \"%s\", \"id\": %lld, "
      "\"round\": %d, \"scheme\": \"%s\", \"ms\": %.6f, "
      "\"generated\": %zu, \"shaped\": %zu, "
      "\"deferred\": %zu, \"fates\": %zu, \"result_offered\": %zu, "
      "\"result_delivered\": %zu, \"offered\": %zu, \"delivered\": %zu, "
      "\"loss\": {\"decoder_intra\": %zu, \"decoder_inter\": %zu, "
      "\"channel_intra\": %zu, \"channel_inter\": %zu, \"other\": %zu}, "
      "\"uplinks\": %zu, \"server_delivered\": %zu, \"digest\": \"%s\", "
      "\"resident_rows\": %zu, \"boundary_events\": %zu}\n",
      phase, static_cast<long long>(w.id), w.round, w.scheme.c_str(),
      w.ms, w.generated, w.shaped, w.deferred, w.fates, w.result_offered,
      w.result_delivered, d.offered, d.delivered, d.losses[0], d.losses[1],
      d.losses[2], d.losses[3], d.losses[4], d.uplinks, d.server_delivered,
      digest_hex(w.digest).c_str(), w.resident_rows, w.boundary_events);
}

// One operator's capacity upgrade on capacity_upgrade.
struct UpgradeRecord {
  std::int64_t id = 0;
  int round = 0;
  int op = 0;
  double ms = 0;  // steps (2) + (3): parse, estimate, upgrade
  double cp_solve_s = 0;
  double sim_total_s = 0;
  double sim_master_s = 0;
  std::size_t nodes_changed = 0;
  std::uint32_t epoch = 0;
  std::uint32_t previous_epoch = 0;
  std::uint32_t accepted_epoch = 0;
};

void emit_upgrade(const char* phase, const UpgradeRecord& u) {
  std::printf(
      "{\"type\": \"upgrade\", \"phase\": \"%s\", \"id\": %lld, "
      "\"round\": %d, \"op\": %d, \"ms\": %.6f, \"cp_solve_s\": %.9f, "
      "\"sim_total_s\": %.9f, \"sim_master_s\": %.9f, "
      "\"nodes_changed\": %zu, \"epoch\": %u, \"previous_epoch\": %u, "
      "\"accepted_epoch\": %u}\n",
      phase, static_cast<long long>(u.id), u.round, u.op, u.ms, u.cp_solve_s,
      u.sim_total_s, u.sim_master_s, u.nodes_changed, u.epoch,
      u.previous_epoch, u.accepted_epoch);
}

// Everything a round produced, emitted by the caller.
struct RoundRecords {
  std::vector<WindowRecord> windows;
  std::vector<UpgradeRecord> upgrades;
};

// A world the pipeline runs windows on: one deployment, its runner and
// its metrics. Deployment is address-stable (the runner holds it).
struct Cell {
  std::string scheme_name;
  BaselineScheme scheme;
  std::unique_ptr<Deployment> deployment;
  std::unique_ptr<ScenarioRunner> runner;
  MetricsCollector metrics;
  PacketIdSource ids;
};

// Transmissions whose start a MAC policy moved (same packets, by id).
std::size_t count_moved(std::vector<Transmission> before,
                        const std::vector<Transmission>& shaped) {
  std::vector<Transmission> after = shaped;
  const auto by_id = [](const Transmission& a, const Transmission& b) {
    return a.id < b.id;
  };
  std::sort(before.begin(), before.end(), by_id);
  std::sort(after.begin(), after.end(), by_id);
  std::size_t moved = 0;
  for (std::size_t i = 0; i < std::min(before.size(), after.size()); ++i) {
    if (before[i].id != after[i].id || before[i].start != after[i].start) {
      ++moved;
    }
  }
  return moved;
}

using TrafficFn =
    std::function<std::vector<Transmission>(Cell&, Rng& traffic_rng)>;

WindowRecord run_pipeline(Cell& cell, std::int64_t id, int round,
                          std::uint64_t window_seed, const TrafficFn& traffic) {
  WindowRecord rec;
  rec.id = id;
  rec.round = round;
  rec.scheme = cell.scheme_name;
  Totals before;
  {
    Span span("perfbench.check", cell.scheme_name, id);
    before = snapshot(cell.metrics, *cell.deployment);
  }
  WindowResult result;
  {
    Span window("window", cell.scheme_name, id);
    const double t0 = now_us();
    std::vector<Transmission> txs;
    {
      Span span("sim.traffic");
      Rng traffic_rng(window_seed);
      txs = traffic(cell, traffic_rng);
      sort_by_start(txs);
    }
    rec.generated = txs.size();
    std::vector<Transmission> offered;
    if (tracer.enabled() && cell.scheme.mac) {
      Span span("perfbench.check");
      offered = txs;
    }
    if (cell.scheme.mac) {
      Span span("baselines.mac");
      Rng shape_rng = Rng(window_seed).substream("mac-shape");
      txs = cell.scheme.shape_window(std::move(txs), shape_rng);
    }
    rec.shaped = txs.size();
    {
      Span span("sim.window");
      result = cell.runner->run_window(txs, cell.metrics);
    }
    rec.ms = (now_us() - t0) / 1e3;
    if (!offered.empty()) {
      Span span("perfbench.check");
      rec.deferred = count_moved(std::move(offered), txs);
    }
  }
  Span span("perfbench.check", cell.scheme_name, id);
  const Totals after = snapshot(cell.metrics, *cell.deployment);
  rec.delta.offered = after.offered - before.offered;
  rec.delta.delivered = after.delivered - before.delivered;
  for (std::size_t c = 0; c < std::size(kLossCauses); ++c) {
    rec.delta.losses[c] = after.losses[c] - before.losses[c];
  }
  rec.delta.uplinks = after.uplinks - before.uplinks;
  rec.delta.server_delivered = after.server_delivered - before.server_delivered;
  rec.fates = result.fates.size();
  rec.result_offered = result.total_offered();
  rec.result_delivered = result.total_delivered();
  rec.digest = fate_digest(result.fates);
  rec.resident_rows = cell.runner->shard_stats().resident_rows;
  rec.boundary_events = cell.runner->shard_stats().boundary_events;
  return rec;
}

// Each workload's world (placement and provisioning) is fixed by its own
// world seed, so the work per round does not change with --seed; --seed
// drives every window's traffic and MAC draws, the runner's fading draws
// and the backhaul latencies. Window k of round r draws from a fixed mix
// of (seed, r, k).
std::uint64_t window_seed(std::uint64_t seed, int round, int k) {
  return Rng(seed).substream(static_cast<std::uint64_t>(round) + 1,
                             static_cast<std::uint64_t>(k) + 1)
      .next();
}

ChannelModelConfig urban_channel(std::uint64_t seed) {
  ChannelModelConfig cfg;
  cfg.shadowing_sigma_db = Db{3.0};
  cfg.fast_fading_sigma_db = Db{0.8};
  cfg.seed = seed;
  return cfg;
}

void place(Deployment& deployment, Network& network, std::size_t gateways,
           std::size_t nodes, Rng& rng) {
  Span span("sim.topology");
  deployment.place_gateways(network, gateways, default_profile(), rng);
  deployment.place_nodes(network, nodes, rng);
}

void configure(const NodeMacPolicy& policy, std::string_view scheme,
               Deployment& deployment, Network& network, Rng& rng) {
  Span span("baselines.configure", scheme);
  policy.configure(deployment, network, rng);
}

std::unique_ptr<ScenarioRunner> make_runner(Deployment& deployment,
                                            std::uint64_t seed,
                                            RunOptions options) {
  Span span("sim.runner");
  return std::make_unique<ScenarioRunner>(deployment, seed, std::move(options));
}

constexpr Seconds kWindow{30.0};

// ---- workloads -------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  virtual RoundRecords run_round(int round) = 0;

 protected:
  Workload() = default;
};

// Fig. 13 at the 12k-user scale: every registered scheme runs one 30 s
// window per round, each on its own world provisioned by that scheme.
class SchemeGrid final : public Workload {
 public:
  static constexpr std::size_t kUsers = 12000;
  static constexpr std::size_t kPhysicalNodes = 144;
  static constexpr double kUserUtilization = 0.005;
  // The fig13 bench's world seed for its 12k-user column.
  static constexpr std::uint64_t kWorldSeed = 905;

  explicit SchemeGrid(std::uint64_t seed) : seed_(seed) {
    for (const std::string& name : BaselineRegistry::instance().names()) {
      Cell& cell = cells_.emplace_back();
      cell.scheme_name = name;
      cell.deployment = std::make_unique<Deployment>(
          Region{Meters{2100}, Meters{1600}}, spectrum_4m8(),
          urban_channel(kWorldSeed));
      Network& network = cell.deployment->add_network("op");
      Rng rng(kWorldSeed);
      place(*cell.deployment, network, 15, kPhysicalNodes, rng);
      cell.scheme = BaselineRegistry::instance().make(name, tuning());
      if (cell.scheme.mac) {
        configure(*cell.scheme.mac, name, *cell.deployment, network, rng);
      }
      RunOptions options;
      options.capture_policy = cell.scheme.capture;
      cell.runner = make_runner(*cell.deployment, seed, std::move(options));
    }
  }

  RoundRecords run_round(int round) override {
    RoundRecords out;
    const std::uint64_t ws = window_seed(seed_, round, 0);
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const auto id = static_cast<std::int64_t>(
          static_cast<std::size_t>(round) * cells_.size() + i);
      out.windows.push_back(run_pipeline(cells_[i], id, round, ws, traffic));
    }
    // Server logs are rotated every round (see CityCoexist::run_round).
    for (Cell& cell : cells_) {
      for (Network& net : cell.deployment->networks()) net.server().clear();
    }
    return out;
  }

 private:
  // The fig13 registry tuning: homogeneous commercial plans with
  // conservative ADR; AlphaWAN gets the fig13 GA budget and the per-node
  // demand of the emulated population.
  static BaselineTuning tuning() {
    BaselineTuning t;
    t.node_side.spread_gateways_across_plans = false;
    t.node_side.adr.installation_margin = Db{10.0};
    t.node_side.adr.min_tx_power = Dbm{8.0};
    t.alphawan.controller.planner.ga.population = 24;
    t.alphawan.controller.planner.ga.generations = 40;
    t.alphawan.controller.planner.pair_capacity = 0.08;
    t.alphawan.demand_per_node =
        static_cast<double>(kUsers) / kPhysicalNodes * kUserUtilization;
    return t;
  }

  static std::vector<Transmission> traffic(Cell& cell, Rng& rng) {
    std::vector<Transmission> txs;
    const std::size_t users_per_node = kUsers / kPhysicalNodes;
    NodeId virtual_base = 1'000'000;
    for (auto& node : cell.deployment->networks().front().nodes()) {
      const Seconds airtime = time_on_air(node.tx_params(), 10);
      const double rate = kUserUtilization / airtime.value();
      auto node_txs = emulated_user_traffic({&node}, users_per_node, kWindow,
                                            rate, rng, cell.ids, virtual_base);
      virtual_base += users_per_node;
      txs.insert(txs.end(), node_txs.begin(), node_txs.end());
    }
    return txs;
  }

  std::uint64_t seed_;
  std::vector<Cell> cells_;
};

// Three operators with standard provisioning sharing a 12 x 6 km city on
// the stock COTS pipeline, driven through the sharded engine.
class CityCoexist final : public Workload {
 public:
  static constexpr int kOperators = 3;
  static constexpr std::size_t kGateways = 16;
  static constexpr std::size_t kNodesPerOperator = 10000;
  static constexpr std::size_t kUsersPerNode = 10;
  static constexpr double kPacketsPerUserPerWindow = 0.1;
  static constexpr int kWindowsPerRound = 10;
  static constexpr std::uint64_t kWorldSeed = 77;  // bench_city_1m's

  explicit CityCoexist(std::uint64_t seed) : seed_(seed) {
    cell_.deployment = std::make_unique<Deployment>(
        Region{Meters{12000}, Meters{6000}}, spectrum_4m8(),
        urban_channel(kWorldSeed));
    Rng rng(kWorldSeed);
    StandardLorawanOptions options;
    options.adr.installation_margin = Db{10.0};
    options.adr.min_tx_power = Dbm{8.0};
    const StandardLorawanPolicy policy(options);
    for (int op = 0; op < kOperators; ++op) {
      Network& network =
          cell_.deployment->add_network("op" + std::to_string(op));
      place(*cell_.deployment, network, kGateways, kNodesPerOperator, rng);
      configure(policy, "standard", *cell_.deployment, network, rng);
    }
    RunOptions run;
    run.shards = 8;
    cell_.runner = make_runner(*cell_.deployment, seed, std::move(run));
  }

  RoundRecords run_round(int round) override {
    RoundRecords out;
    for (int k = 0; k < kWindowsPerRound; ++k) {
      out.windows.push_back(run_pipeline(cell_, round * kWindowsPerRound + k,
                                         round, window_seed(seed_, round, k),
                                         traffic));
    }
    // The operators rotate their server logs every round, so memory and
    // per-window cost do not grow with the run's length.
    for (Network& net : cell_.deployment->networks()) net.server().clear();
    return out;
  }

 private:
  static std::vector<Transmission> traffic(Cell& cell, Rng& rng) {
    std::vector<Transmission> txs;
    const double rate = kPacketsPerUserPerWindow / kWindow.value();
    NodeId virtual_base = 1'000'000;
    for (Network& net : cell.deployment->networks()) {
      for (auto& node : net.nodes()) {
        auto node_txs = emulated_user_traffic({&node}, kUsersPerNode, kWindow,
                                              rate, rng, cell.ids,
                                              virtual_base);
        virtual_base += kUsersPerNode;
        txs.insert(txs.end(), node_txs.begin(), node_txs.end());
      }
    }
    return txs;
  }

  std::uint64_t seed_;
  Cell cell_;
};

// The Fig. 10 / 17b control loop: three operators share spectrum through
// a Master. Each round restores the operators' standard provisioning,
// measures, upgrades every operator from its server log, then operates
// two windows on the new frequency-misaligned plans — so every round is
// the same full-size upgrade.
class CapacityUpgrade final : public Workload {
 public:
  static constexpr int kOperators = 3;
  static constexpr std::size_t kGateways = 4;
  static constexpr std::size_t kNodesPerOperator = 3000;
  // A long, light window, so the log hears nearly every node: about five
  // packets per node (fewer at DR0, where the 1% duty cycle binds).
  static constexpr Seconds kWindowLength{300.0};
  static constexpr double kPacketsPerNodePerWindow = 5.0;
  static constexpr int kVerifyWindows = 2;
  static constexpr std::uint64_t kWorldSeed = 22;

  explicit CapacityUpgrade(std::uint64_t seed)
      : seed_(seed),
        master_(MasterConfig{spectrum_4m8(), 0.4, kOperators}) {
    cell_.scheme_name = "alphawan";
    cell_.deployment = std::make_unique<Deployment>(
        Region{Meters{2100}, Meters{1600}}, spectrum_4m8(),
        urban_channel(kWorldSeed));
    Rng rng(kWorldSeed);
    StandardLorawanOptions options;
    options.spread_gateways_across_plans = false;
    const StandardLorawanPolicy policy(options);
    for (int op = 0; op < kOperators; ++op) {
      Network& network =
          cell_.deployment->add_network("op" + std::to_string(op));
      place(*cell_.deployment, network, kGateways, kNodesPerOperator, rng);
      configure(policy, "standard", *cell_.deployment, network, rng);
      standard_.push_back(network.current_config());
      latency_.push_back(std::make_unique<LatencyModel>(
          LatencyModelConfig{}, seed * 131 + static_cast<std::uint64_t>(op)));
      controllers_.push_back(std::make_unique<AlphaWanController>(
          controller_config(), *latency_.back()));
    }
    cell_.runner = make_runner(*cell_.deployment, seed, RunOptions{});
  }

  RoundRecords run_round(int round) override {
    RoundRecords out;
    constexpr int kWindows = 1 + kVerifyWindows;
    std::size_t op = 0;
    for (Network& net : cell_.deployment->networks()) {
      net.server().clear();
      net.apply_config(standard_[op++]);
    }
    out.windows.push_back(run_pipeline(cell_, kWindows * round, round,
                                       window_seed(seed_, round, 0), traffic));
    op = 0;
    for (Network& net : cell_.deployment->networks()) {
      out.upgrades.push_back(upgrade(net, round, static_cast<int>(op++)));
    }
    for (int k = 1; k < kWindows; ++k) {
      out.windows.push_back(run_pipeline(cell_, kWindows * round + k, round,
                                         window_seed(seed_, round, k),
                                         traffic));
    }
    return out;
  }

 private:
  static AlphaWanConfig controller_config() {
    AlphaWanConfig cfg;
    cfg.strategy8_spectrum_sharing = true;
    // The Fig. 17 production solver budget.
    cfg.planner.ga.population = 32;
    cfg.planner.ga.generations = 40;
    cfg.planner.ga.early_stop = false;
    // Demand comes from the estimator in packets per window.
    cfg.planner.pair_capacity = 400.0;
    return cfg;
  }

  UpgradeRecord upgrade(Network& net, int round, int op) {
    UpgradeRecord rec;
    rec.id = static_cast<std::int64_t>(round) * kOperators + op;
    rec.round = round;
    rec.op = op;
    const auto slot = static_cast<std::size_t>(op);
    rec.previous_epoch = controllers_[slot]->plan_epoch(net.id());
    Span upgrade_span("upgrade", "alphawan", rec.id);
    const double t0 = now_us();
    std::map<NodeId, Dbm> tx_power;
    for (const auto& node : net.nodes()) {
      tx_power[node.id()] = node.config().tx_power;
    }
    LinkEstimates links;
    std::map<NodeId, std::vector<std::size_t>> series;
    {
      Span span("core.log_parser");
      links = parse_links(net.server().log(), tx_power);
      series = per_window_counts(net.server().log(), kWindowLength, 1);
    }
    std::map<NodeId, double> demand;
    {
      Span span("core.estimator");
      demand = TrafficEstimator{}.estimate(series);
    }
    UpgradeReport report;
    {
      Span span("core.upgrade");
      report = controllers_[slot]->upgrade(net, cell_.deployment->spectrum(),
                                           links, demand, &master_);
    }
    rec.ms = (now_us() - t0) / 1e3;
    rec.cp_solve_s = report.cp_solve.value();
    rec.sim_total_s = report.total().value();
    rec.sim_master_s = report.master_communication.value();
    rec.nodes_changed = report.delta.nodes_changed;
    rec.epoch = report.master_epoch;
    rec.accepted_epoch = controllers_[slot]->plan_epoch(net.id());
    return rec;
  }

  // One emulated user per node, keeping the node's own id, so the log
  // parser sees physical nodes. The generator paces each user's duty cycle
  // within the window only, so every window offers the same load.
  static std::vector<Transmission> traffic(Cell& cell, Rng& rng) {
    std::vector<Transmission> txs;
    const double rate = kPacketsPerNodePerWindow / kWindowLength.value();
    for (Network& net : cell.deployment->networks()) {
      for (auto& node : net.nodes()) {
        auto node_txs = emulated_user_traffic({&node}, 1, kWindowLength, rate,
                                              rng, cell.ids, node.id());
        txs.insert(txs.end(), node_txs.begin(), node_txs.end());
      }
    }
    return txs;
  }

  std::uint64_t seed_;
  Cell cell_;
  MasterNode master_;
  std::vector<NetworkChannelConfig> standard_;
  std::vector<std::unique_ptr<LatencyModel>> latency_;
  std::vector<std::unique_ptr<AlphaWanController>> controllers_;
};

// The measured work is a fixed number of rounds, derived from --seconds
// and each workload's nominal round time (a 4-thread x86-64 host at this
// benchmark's baseline), so every run of a given --seconds does the same
// work however fast the host or the code is.
struct WorkloadSpec {
  const char* name;
  double nominal_round_s;
  int min_rounds;  // enough windows for a tail percentile
  int setups;      // set-ups timed per run: about a second or two in all
  std::unique_ptr<Workload> (*make)(std::uint64_t seed);

  [[nodiscard]] int rounds(double seconds) const {
    return std::max(min_rounds,
                    static_cast<int>(std::lround(seconds / nominal_round_s)));
  }
};

const WorkloadSpec kWorkloads[] = {
    {"scheme_grid", 3.5, 3, 41,
     [](std::uint64_t s) -> std::unique_ptr<Workload> {
       return std::make_unique<SchemeGrid>(s);
     }},
    {"city_coexist", 2.3, 2, 7,
     [](std::uint64_t s) -> std::unique_ptr<Workload> {
       return std::make_unique<CityCoexist>(s);
     }},
    {"capacity_upgrade", 0.85, 7, 41,
     [](std::uint64_t s) -> std::unique_ptr<Workload> {
       return std::make_unique<CapacityUpgrade>(s);
     }},
};

// Runs a round and emits its records, tagged with the run phase; returns
// the fold of its window digests.
std::uint64_t run_and_emit(Workload& workload, int round, bool traced,
                           const char* phase, double* seconds = nullptr) {
  tracer.set_enabled(traced);
  RoundRecords records;
  const double t0 = now_us();
  {
    Span span("round", {}, round);
    records = workload.run_round(round);
  }
  const double elapsed = (now_us() - t0) / 1e6;
  tracer.set_enabled(false);
  std::uint64_t digest = kFnv1aOffset;
  for (const auto& w : records.windows) {
    emit_window(phase, w);
    digest = fnv1a(&w.digest, sizeof w.digest, digest);
  }
  for (const auto& u : records.upgrades) emit_upgrade(phase, u);
  std::printf("{\"type\": \"round\", \"phase\": \"%s\", \"round\": %d, "
              "\"s\": %.9f, \"traced\": %s}\n",
              phase, round, elapsed, traced ? "true" : "false");
  if (seconds != nullptr) *seconds = elapsed;
  return digest;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "[--trace-out PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_out;
  if (argc % 2 == 0) return usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload_name = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (key == "--trace-out") {
      trace_out = value;
    } else {
      return usage();
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const auto& w : kWorkloads) {
    if (workload_name == w.name) spec = &w;
  }
  if (spec == nullptr) return usage();
  const bool traced = !trace_out.empty();

  std::printf("{\"type\": \"start\", \"workload\": \"%s\", \"seed\": %llu, "
              "\"threads\": %d, \"rounds\": %d}\n",
              spec->name, static_cast<unsigned long long>(seed),
              default_thread_count(), spec->rounds(seconds));

  // Set-up, timed spec->setups times from a fresh process, one world alive
  // at a time. The last timed world replays round 0; a new world then runs
  // round 0 again as the warm-up, and the two digests must agree.
  std::unique_ptr<Workload> workload;
  for (int k = 0; k < spec->setups; ++k) {
    workload.reset();
    tracer.set_enabled(traced);
    const double t0 = now_us();
    {
      Span span("setup", {}, k);
      workload = spec->make(seed);
    }
    const double elapsed = (now_us() - t0) / 1e6;
    tracer.set_enabled(false);
    std::printf("{\"type\": \"setup\", \"index\": %d, \"s\": %.9f}\n", k,
                elapsed);
  }
  const std::uint64_t replay_digest =
      run_and_emit(*workload, 0, false, "replay");
  workload.reset();
  workload = spec->make(seed);
  const std::uint64_t warmup_digest =
      run_and_emit(*workload, 0, false, "warmup");
  std::printf("{\"type\": \"digest\", \"replay\": \"%s\", "
              "\"warmup\": \"%s\"}\n",
              digest_hex(replay_digest).c_str(),
              digest_hex(warmup_digest).c_str());
  std::fflush(stdout);

  // Measured rounds: closed loop, each round starts when the previous one
  // ends. Odd rounds are traced when tracing is on.
  const double cpu0 = cpu_seconds();
  const double t0 = now_us();
  for (int round = 1; round <= spec->rounds(seconds); ++round) {
    (void)run_and_emit(*workload, round, traced && round % 2 == 1, "measure");
  }
  const double elapsed = (now_us() - t0) / 1e6;
  const double cpu = cpu_seconds() - cpu0;
  std::printf("{\"type\": \"summary\", \"wall_s\": %.9f, \"cpu_s\": %.9f, "
              "\"peak_rss_mib\": %.6f}\n",
              elapsed, cpu, peak_rss_mib());
  std::fflush(stdout);
  if (traced && !tracer.write_chrome(trace_out)) {
    std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                 trace_out.c_str());
    return 1;
  }
  return 0;
}

// Figure 13 reproduction: LoRaWAN at scale (2k-12k duty-cycled users,
// 15 gateways, 4.8 MHz) — AlphaWAN vs the state of the art.
//   (a) aggregate network throughput  (b) packet reception ratio
//   (c) loss-factor breakdown at 6k users
//   (d) spectrum utilization (per-DR delivered share)
//   (e) decoder-pool grid: every scheme x pool size at the 6k-user scale
// Schemes come from the baseline registry (baselines/registry.hpp) — no
// per-baseline wiring here. ALPHAWAN_BASELINE=lmac,cic,... restricts the
// grid to a comma-separated subset of registered schemes.
#include "harness.hpp"

#include "baselines/registry.hpp"

using namespace alphawan;
using namespace alphawan::bench;

namespace {

constexpr Seconds kWindow{30.0};
// Per-user airtime utilization (half the regulatory 1% duty budget).
constexpr double kUserUtilization = 0.005;
constexpr std::size_t kPhysicalNodes = 144;

// Receive-pipeline throughput across every measured window, aggregated
// over all (scheme, scale) runs: the scaled-ops hot-path metric tracked
// in BENCH_PR4.json onward (planning/GA time deliberately excluded).
PerfAccumulator window_perf("fig13_scaled_ops.window");
// The per-window pipeline end to end: traffic generation, MAC shaping
// (LMAC carrier sensing, sALOHA slotting) and run_window. Provisioning,
// GA planning and runner construction stay outside.
PerfAccumulator e2e_perf("fig13_scaled_ops.e2e");

const char* display_name(const std::string& scheme) {
  if (scheme == "standard-no-adr") return "LoRaWAN w/o ADR";
  if (scheme == "standard") return "LoRaWAN w/ ADR";
  if (scheme == "lmac") return "LMAC";
  if (scheme == "cic") return "CIC";
  if (scheme == "random-cp") return "Random CP";
  if (scheme == "saloha") return "sALOHA";
  if (scheme == "ss5g") return "SS5G";
  if (scheme == "curvinglora") return "CurvingLoRa";
  if (scheme == "alphawan") return "AlphaWAN";
  return scheme.c_str();
}

struct Result {
  double throughput_bps = 0;
  double prr = 0;
  double dec = 0, chan = 0, other = 0;
  std::array<double, kNumDataRates> dr_share{};
};

// The registry tuning every scheme in this bench shares: commercial
// operators run homogeneous plans (paper Sec. 3.2) with conservative ADR;
// AlphaWAN's planner gets the fig13 GA budget and the per-node demand the
// emulated user population offers.
BaselineTuning fig13_tuning(std::size_t users) {
  BaselineTuning tuning;
  tuning.node_side.spread_gateways_across_plans = false;
  tuning.node_side.adr.installation_margin = Db{10.0};  // keep links robust
  tuning.node_side.adr.min_tx_power = Dbm{8.0};
  tuning.alphawan.controller.planner.ga.population = 24;
  tuning.alphawan.controller.planner.ga.generations = 40;
  // Demand in Erlangs (offered airtime utilization): each physical node
  // hosts users/144 virtual users at kUserUtilization each. Decoder
  // capacities C_j are concurrency limits, so Erlang units line up.
  tuning.alphawan.controller.planner.pair_capacity = 0.08;
  tuning.alphawan.demand_per_node =
      static_cast<double>(users) / kPhysicalNodes * kUserUtilization;
  return tuning;
}

Result run(const std::string& scheme_name, std::size_t users,
           std::uint64_t seed, int decoders = 0) {
  Deployment deployment{Region{Meters{2100}, Meters{1600}}, spectrum_4m8(),
                        urban_channel(seed)};
  auto& network = deployment.add_network("op");
  Rng rng(seed);
  GatewayProfile profile = default_profile();
  if (decoders > 0) profile.decoders = decoders;
  deployment.place_gateways(network, 15, profile, rng);
  deployment.place_nodes(network, kPhysicalNodes, rng);

  const BaselineScheme scheme =
      BaselineRegistry::instance().make(scheme_name, fig13_tuning(users));
  scheme.configure(deployment, network, rng);

  const auto pipeline_begin = std::chrono::steady_clock::now();
  // Emulated duty-cycled users (paper Sec. 5.2.1): each physical node
  // hosts users/144 virtual users, each filling kUserUtilization of its
  // data rate's airtime.
  PacketIdSource ids;
  Rng traffic_rng(seed * 7 + 1);
  std::vector<Transmission> txs;
  const std::size_t users_per_node =
      std::max<std::size_t>(1, users / kPhysicalNodes);
  NodeId virtual_base = 1'000'000;
  for (auto& node : network.nodes()) {
    const Seconds airtime = time_on_air(node.tx_params(), 10);
    const double rate = kUserUtilization / airtime.value();
    std::vector<EndNode*> one = {&node};
    auto node_txs = emulated_user_traffic(one, users_per_node, kWindow, rate,
                                          traffic_rng, ids, virtual_base);
    virtual_base += users_per_node;
    txs.insert(txs.end(), node_txs.begin(), node_txs.end());
  }
  sort_by_start(txs);
  Rng shape_rng = rng.substream("mac-shape");
  txs = scheme.shape_window(std::move(txs), shape_rng);
  const std::chrono::duration<double> shaped_in =
      std::chrono::steady_clock::now() - pipeline_begin;

  RunOptions options;
  options.capture_policy = scheme.capture;
  ScenarioRunner runner(deployment, seed, std::move(options));
  MetricsCollector metrics;
  const auto window_begin = std::chrono::steady_clock::now();
  (void)runner.run_window(txs, metrics);
  const std::chrono::duration<double> window_in =
      std::chrono::steady_clock::now() - window_begin;
  window_perf.add(txs.size(), window_in.count());
  e2e_perf.add(txs.size(), (shaped_in + window_in).count());

  Result result;
  result.prr = metrics.total_prr();
  result.throughput_bps =
      8.0 * static_cast<double>(metrics.total_delivered_bytes()) /
      kWindow.value();
  result.dec = metrics.loss_fraction(LossCause::kDecoderContentionIntra) +
               metrics.loss_fraction(LossCause::kDecoderContentionInter);
  result.chan = metrics.loss_fraction(LossCause::kChannelContentionIntra) +
                metrics.loss_fraction(LossCause::kChannelContentionInter);
  result.other = metrics.loss_fraction(LossCause::kOther);
  // Fig. 13d — spectrum utilization: delivered traffic share per DR,
  // straight from the streaming per-DR aggregate (the full fate history is
  // no longer retained).
  const auto delivered_total = static_cast<double>(metrics.total_delivered());
  for (const DataRate dr : kAllDataRates) {
    result.dr_share[static_cast<std::size_t>(dr_value(dr))] =
        static_cast<double>(metrics.delivered_by_dr(dr));
  }
  if (delivered_total > 0) {
    for (auto& share : result.dr_share) share /= delivered_total;
  }
  return result;
}

}  // namespace

int main() {
  // Smoke mode (ALPHAWAN_BENCH_SMOKE=1): two scales, three cheap
  // schemes — enough windows to track receive-pipeline throughput in CI
  // without paying for the GA planner at every scale. LMAC is among them
  // so the e2e row sees carrier-sense shaping.
  const std::vector<std::size_t> scales =
      perf_smoke_mode() ? std::vector<std::size_t>{2000, 6000}
                        : std::vector<std::size_t>{2000, 4000, 6000, 8000,
                                                   10000, 12000};
  const std::vector<std::string> schemes = baselines_from_env(
      perf_smoke_mode()
          ? std::vector<std::string>{"standard-no-adr", "standard", "lmac"}
          : std::vector<std::string>{"standard-no-adr", "standard", "lmac",
                                     "cic", "saloha", "ss5g", "curvinglora",
                                     "random-cp", "alphawan"});

  print_header(
      "Fig. 13a/13b — throughput (kbps) and PRR vs user scale\n"
      "paper: w/o-ADR, LMAC, CIC saturate at ~6k users (decoder bound);\n"
      "AlphaWAN keeps PRR > 85% at 12k users");
  std::printf("  %-18s", "scheme");
  for (auto s : scales) std::printf(" %8zu", s);
  std::printf("\n");
  std::vector<Result> at_6k(schemes.size());
  for (std::size_t si = 0; si < schemes.size(); ++si) {
    std::vector<Result> row;
    for (std::size_t sc = 0; sc < scales.size(); ++sc) {
      row.push_back(run(schemes[si], scales[sc], 900 + sc));
      if (scales[sc] == 6000) at_6k[si] = row.back();
    }
    std::printf("  %-18s", display_name(schemes[si]));
    for (const auto& r : row) std::printf(" %8.1f", r.throughput_bps / 1e3);
    std::printf("  kbps\n");
    std::printf("  %-18s", "");
    for (const auto& r : row) std::printf(" %8.2f", r.prr);
    std::printf("  PRR\n");
  }

  print_header(
      "Fig. 13c — loss factors at the 6k-user scale\n"
      "paper: decoder contention dominates for the non-planning baselines");
  std::printf("  %-18s %-10s %-10s %-10s\n", "scheme", "decoder",
              "channel", "other");
  for (std::size_t si = 0; si < schemes.size(); ++si) {
    std::printf("  %-18s %-10.3f %-10.3f %-10.3f\n",
                display_name(schemes[si]), at_6k[si].dec, at_6k[si].chan,
                at_6k[si].other);
  }

  print_header(
      "Fig. 13d — spectrum utilization at 6k users: delivered share per DR\n"
      "paper: ADR piles traffic on DR5; AlphaWAN uses all data rates");
  std::printf("  %-18s", "scheme");
  for (int dr = 0; dr < kNumDataRates; ++dr) std::printf("   DR%d ", dr);
  std::printf("\n");
  for (std::size_t si = 0; si < schemes.size(); ++si) {
    std::printf("  %-18s", display_name(schemes[si]));
    for (int dr = 0; dr < kNumDataRates; ++dr) {
      std::printf(" %5.2f ", at_6k[si].dr_share[static_cast<std::size_t>(dr)]);
    }
    std::printf("\n");
  }

  // Fig. 13e (extension beyond the paper): the decoder-pool grid. Every
  // scheme re-run at the 6k-user scale with shrunken/grown pools — the
  // first measurement of sALOHA / SS5G / CurvingLoRa when decoders, not
  // collisions, are scarce. Skipped in smoke mode (fig12 carries the
  // per-scheme smoke rows).
  if (!perf_smoke_mode()) {
    print_header(
        "Fig. 13e — PRR at 6k users vs decoder-pool size (per gateway)\n"
        "extension: collision-resolution schemes were designed assuming RF\n"
        "collisions dominate; shrinking the pool exposes the decoder bound");
    const std::vector<int> pools = {4, 8, 16, 32};
    std::printf("  %-18s", "scheme");
    for (int p : pools) std::printf(" %8d", p);
    std::printf("\n");
    for (const auto& scheme : schemes) {
      std::printf("  %-18s", display_name(scheme));
      for (const int pool : pools) {
        const Result r = run(scheme, 6000, 900 + 2, pool);
        std::printf(" %8.2f", r.prr);
      }
      std::printf("  PRR\n");
    }
  }
  window_perf.report();
  e2e_perf.report();
  return 0;
}

// Graceful degradation under overload: open-loop point-SELECT load swept
// from below capacity to far above it, against a server with an admission
// gate, a bounded enclave queue and a connection cap.
//
// The contract being measured (the robustness PR's acceptance bar):
//   - goodput plateaus near capacity instead of collapsing as offered load
//     grows (the admission gate sheds excess work before it costs anything),
//   - p99 latency of *completed* queries stays bounded by the client deadline,
//   - every shed query carries a typed kOverloaded / kDeadlineExceeded,
//   - zero wrong results: each response self-validates (C_ID echo plus the
//     encrypted C_LAST decrypting to the loader's value).
//
// Emits BENCH_overload.json next to the working directory for the roadmap's
// recorded-artifacts convention.

#include <cstdio>
#include <string>
#include <vector>

#include "tpcc_bench_common.h"

namespace aedb::bench {
namespace {

struct SweepPoint {
  double multiplier = 0;
  double offered_tps = 0;
  tpcc::OpenLoopResult r;
};

int Run() {
  tpcc::TpccConfig tpcc_config;
  tpcc_config.warehouses = 1;
  tpcc_config.customers_per_district = 30;
  tpcc_config.initial_orders_per_district = 5;

  SystemConfig system;
  system.name = "SQL-AE-DET";
  system.encryption = tpcc::Encryption::kDeterministic;
  system.cache_describe = true;

  auto d = SetUpDeployment(system, tpcc_config, /*network_us=*/0,
                           /*enclave_transition_ns=*/0,
                           /*eval_batch_size=*/256,
                           [](server::ServerOptions* opts) {
                             // Gate well below the sweep's 16 issuers so the
                             // admission path actually sheds under overload.
                             opts->max_inflight_queries = 4;
                             opts->enclave_queue_depth = 64;
                             opts->overload_retry_after_ms = 5;
                           });
  if (!d) {
    std::fprintf(stderr, "deployment setup failed\n");
    return 1;
  }
  net::ServerConfig net_config;
  net_config.max_connections = 64;  // above the sweep's thread count
  Status st = d->EnableLoopback(net_config);
  if (!st.ok()) {
    std::fprintf(stderr, "loopback start failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // Capacity probe: one closed-loop client issuing the same point SELECT as
  // fast as it can. Its rate is the "single-client saturation" baseline the
  // goodput floor is expressed against.
  d->driver_deadline_ms = 0;
  auto probe = tpcc::RunOpenLoop([&] { return d->MakeDriver(); }, d->config,
                                 /*threads=*/1, /*offered_tps=*/1e9,
                                 /*seconds=*/1.0);
  double capacity = probe.goodput_tps;
  if (capacity <= 0) {
    std::fprintf(stderr, "capacity probe produced no completions\n");
    return 1;
  }
  std::printf("# bench_overload: capacity probe %.0f qps (1 closed client)\n",
              capacity);

  // The sweep proper: fixed 250 ms per-query budget, offered load at
  // {1,2,4,8}x the probed capacity from 16 open-loop issuers (4x the
  // admission gate, so excess concurrency hits the shed path).
  d->driver_deadline_ms = 250;
  const double multipliers[] = {1.0, 2.0, 4.0, 8.0};
  std::vector<SweepPoint> points;
  for (double m : multipliers) {
    SweepPoint p;
    p.multiplier = m;
    p.offered_tps = capacity * m;
    p.r = tpcc::RunOpenLoop([&] { return d->MakeDriver(); }, d->config,
                            /*threads=*/16, p.offered_tps, /*seconds=*/2.0);
    points.push_back(p);
    std::printf(
        "%4.0fx offered=%7.0f goodput=%7.0f qps  p50=%6.1fms p99=%6.1fms  "
        "shed(over=%llu dead=%llu other=%llu) wrong=%llu\n",
        m, p.offered_tps, p.r.goodput_tps, p.r.p50_ms, p.r.p99_ms,
        static_cast<unsigned long long>(p.r.shed_overloaded),
        static_cast<unsigned long long>(p.r.shed_deadline),
        static_cast<unsigned long long>(p.r.other_errors),
        static_cast<unsigned long long>(p.r.wrong_results));
  }

  // JSON artifact.
  FILE* f = std::fopen("BENCH_overload.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"capacity_probe_qps\": %.1f,\n  \"deadline_ms\": 250,\n"
                 "  \"sweep\": [\n", capacity);
    for (size_t i = 0; i < points.size(); ++i) {
      const SweepPoint& p = points[i];
      std::fprintf(
          f,
          "    {\"multiplier\": %.1f, \"offered_qps\": %.1f, "
          "\"goodput_qps\": %.1f, \"completed\": %llu, \"offered\": %llu, "
          "\"p50_ms\": %.2f, \"p99_ms\": %.2f, \"max_ms\": %.2f, "
          "\"shed_overloaded\": %llu, \"shed_deadline\": %llu, "
          "\"other_errors\": %llu, \"wrong_results\": %llu}%s\n",
          p.multiplier, p.offered_tps, p.r.goodput_tps,
          static_cast<unsigned long long>(p.r.completed),
          static_cast<unsigned long long>(p.r.offered), p.r.p50_ms, p.r.p99_ms,
          p.r.max_ms, static_cast<unsigned long long>(p.r.shed_overloaded),
          static_cast<unsigned long long>(p.r.shed_deadline),
          static_cast<unsigned long long>(p.r.other_errors),
          static_cast<unsigned long long>(p.r.wrong_results),
          i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("# wrote BENCH_overload.json\n");
  }

  // Gate on the acceptance criteria at the 4x point.
  const SweepPoint& heavy = points[2];
  bool ok = true;
  if (heavy.r.wrong_results != 0) {
    std::fprintf(stderr, "FAIL: %llu wrong results under 4x overload\n",
                 static_cast<unsigned long long>(heavy.r.wrong_results));
    ok = false;
  }
  if (heavy.r.other_errors != 0) {
    std::fprintf(stderr, "FAIL: %llu untyped errors under 4x overload\n",
                 static_cast<unsigned long long>(heavy.r.other_errors));
    ok = false;
  }
  if (heavy.r.goodput_tps < 0.7 * capacity) {
    std::fprintf(stderr, "FAIL: 4x goodput %.0f < 70%% of capacity %.0f\n",
                 heavy.r.goodput_tps, capacity);
    ok = false;
  }
  const server::DatabaseStats ds = d->db->Stats();
  std::printf(
      "# server: admitted=%llu rejected=%llu expired=%llu queue_hw=%llu "
      "lock_waits_expired=%llu conns_rejected=%llu\n",
      static_cast<unsigned long long>(ds.queries_admitted),
      static_cast<unsigned long long>(ds.queries_rejected),
      static_cast<unsigned long long>(ds.queries_expired),
      static_cast<unsigned long long>(ds.pool_queue_highwater),
      static_cast<unsigned long long>(ds.lock_waits_expired),
      static_cast<unsigned long long>(
          d->net_server->stats().connections_rejected.load()));
  std::printf(ok ? "# PASS: graceful degradation held at 4x\n"
                 : "# FAIL: see above\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace aedb::bench

int main() { return aedb::bench::Run(); }

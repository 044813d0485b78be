// replay_chain_host: the replay stack at host speed, no model. A pool of
// flowgen TCP sessions with distinct 5-tuples is generated in set-up;
// each round replays the whole pool through OpenLoopEmitter on a
// VirtualPacer into conntrack -> NAT and a pcap writer, with a fresh
// chain per round so every session is new to the tracker. The pool is
// large enough that the conntrack table outgrows a core's L2 cache.
// REPRO_THREADS=1, one thread.
#include <memory>

#include "common/parallel/thread_pool.hpp"
#include "common/rng.hpp"
#include "common/telemetry/metrics.hpp"
#include "common/telemetry/trace.hpp"
#include "flowgen/catalog.hpp"
#include "flowgen/tcp_session.hpp"
#include "replay/emit/source.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kThreads = 1;
constexpr std::size_t kSessions = 32768;
constexpr std::size_t kPacketsPerSession = 10;
/// Flows per timed chunk: an eighth of a round, a few tens of ms.
constexpr std::size_t kChunkFlows = kSessions / 8;

/// Sessions of web-like apps with distinct client endpoints (one client
/// address per session), drawn from the workload seed.
std::vector<repro::net::Flow> session_pool(std::uint64_t seed) {
  static constexpr repro::flowgen::App kApps[] = {
      repro::flowgen::App::kNetflix, repro::flowgen::App::kAmazon,
      repro::flowgen::App::kFacebook, repro::flowgen::App::kTwitter};
  repro::Rng rng(seed * 0x2545F4914F6CDD1DULL + 3);
  std::vector<repro::net::Flow> pool;
  pool.reserve(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    repro::flowgen::Endpoints ep;
    ep.client_addr = 0x0A000001u + static_cast<std::uint32_t>(i);
    ep.server_addr = 0x0D000001u + static_cast<std::uint32_t>(rng.uniform_u64(256));
    ep.client_port = static_cast<std::uint16_t>(1024 + rng.uniform_u64(60000));
    ep.server_port = 443;
    const auto app = kApps[rng.uniform_u64(std::size(kApps))];
    pool.push_back(repro::flowgen::generate_tcp_flow(
        repro::flowgen::app_profile(app), ep, kPacketsPerSession, rng));
  }
  return pool;
}

/// Each round replays the whole pool: the looping source wraps around
/// to the first session exactly at a round boundary.
EmitPhase run_phase(repro::replay::emit::VectorFlowSource& pool,
                    std::size_t sessions, const Options& options,
                    double seconds, bool traced, SpanLog& spans,
                    Checks& checks) {
  return run_emit_rounds(
      seconds, traced, options.seed, sessions, kChunkFlows,
      /*sample_every=*/0, spans, checks,
      [&](std::uint64_t, std::uint64_t) -> repro::replay::emit::FlowSource& {
        return pool;
      });
}

void put_common(Result& result, const EmitPhase& phase,
                std::uint64_t& attempted, std::uint64_t& failed) {
  attempted += phase.totals.flows_scheduled;
  failed += phase.totals.underruns + phase.failed_flows;
  const LayerTotals& t = phase.totals;
  if (!check_acceptance(result.checks, t.tcp_accepted, t.tcp_packets,
                        "replay")) {
    failed = attempted;
  }
}

}  // namespace

void run_replay(RunContext& ctx) {
  pin_current_thread(0);
  repro::parallel::set_thread_count(kThreads);
  ctx.provenance.threads = kThreads;
  ctx.provenance.lanes = 0;
  Result& result = ctx.result;

  std::vector<repro::net::Flow> sessions;
  const double setup = timed_setup([&] {
    sessions.clear();
    sessions = session_pool(ctx.options.seed);
  });
  std::uint64_t pool_packets = 0;
  for (const auto& f : sessions) pool_packets += f.packets.size();
  result.note("pool.sessions", static_cast<double>(sessions.size()));
  result.note("pool.packets", static_cast<double>(pool_packets));
  repro::replay::emit::VectorFlowSource pool(std::move(sessions),
                                             /*loop=*/true);

  {  // Warm-up pass outside the clock.
    SpanLog quiet;
    Checks warm_checks;
    run_phase(pool, kSessions, ctx.options, 0.0, false, quiet, warm_checks);
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  if (!ctx.options.trace) {
    const EmitPhase phase = run_phase(pool, kSessions, ctx.options, ctx.options.seconds,
                                      false, ctx.spans, result.checks);
    put_common(result, phase, attempted, failed);
    result.metrics["delivered_pps"] = fast_chunk_pps(phase);
    put_latency(result, fast_chunk_p50_seconds(phase), phase.latencies,
                "flow delivery");
    result.metrics["setup_s"] = setup;
    result.note("rounds", static_cast<double>(phase.rounds));
    result.note("chunks", static_cast<double>(phase.chunk_pps.size()));
    result.note("connections per round",
                static_cast<double>(phase.totals.connections));
    result.attempted = attempted;
    result.failed = std::min(failed, attempted);
    return;
  }

  const double half = ctx.options.seconds / 2.0;
  const EmitPhase plain =
      run_phase(pool, kSessions, ctx.options, half, false, ctx.spans, result.checks);
  put_common(result, plain, attempted, failed);

  repro::telemetry::Registry::instance().reset();
  repro::telemetry::reset_profile();
  repro::telemetry::set_enabled(true);
  ctx.spans.set_enabled(true);
  const LayerCounters start = LayerCounters::now();
  const EmitPhase traced =
      run_phase(pool, kSessions, ctx.options, half, true, ctx.spans, result.checks);
  ctx.spans.set_enabled(false);
  repro::telemetry::set_enabled(false);
  put_common(result, traced, attempted, failed);
  put_registry_metrics(result, start);
  result.attempted = attempted;
  result.failed = std::min(failed, attempted);

  put_emit_metrics(result, traced.totals);
  put_queue_metrics(result, {}, 0.0, 0.0);
  // No model on this path: the probes run on a model fitted after the
  // clock stops, so every traced run reports the same layer set.
  const auto probe_model = build_model(/*fast_routes=*/true);
  run_probes(*probe_model, distilled_route_options(kProbePrecision),
             result);
  result.metrics["diffusion.coverage"] = 0.0;  // no model calls here
  result.metrics["load.send_late_ms_p99"] = 0.0;  // closed loop
  const double pps_plain = fast_chunk_pps(plain);
  const double pps_traced = fast_chunk_pps(traced);
  result.metrics["load.trace_overhead_pct"] =
      pps_plain > 0.0 ? (pps_plain - pps_traced) / pps_plain * 100.0 : 0.0;
  result.note("delivered_pps untraced / traced",
              std::to_string(pps_plain) + " / " + std::to_string(pps_traced));
}

}  // namespace perfbench

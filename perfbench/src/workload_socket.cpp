// socket_fp32_light: open-loop requests over TCP at light load. One
// BlockingClient on one connection sends default single-flow requests
// (fp32 / DDIM-20) to a SocketServer over a one-lane ShardedService with
// its background worker. Arrivals are Poisson at a fixed absolute rate,
// about half the one-lane capacity, so latency is measured below
// saturation. Latency runs from each request's scheduled send time to
// its decoded reply. REPRO_THREADS=1: client, server loop and lane
// worker make 3 threads, plus 1 connection.
#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

#include "common/parallel/thread_pool.hpp"
#include "common/telemetry/metrics.hpp"
#include "common/telemetry/trace.hpp"
#include "serve/net/client.hpp"
#include "serve/net/server.hpp"
#include "serve/registry.hpp"
#include "serve/shard.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace wire = repro::serve::wire;

namespace {

constexpr std::size_t kThreads = 1;
/// Offered load, requests (= flows) per second: about a quarter of the
/// lane's batch-1 capacity. A request costs ~20 ms there: the ~5 ms
/// dispatch wait of an idle lane plus a 13-20 ms DDIM-20 call. At half
/// capacity (~25/s) queueing amplified the host's speed swings: p50 and
/// p90 spread by 22% and 34% of their medians over five runs.
constexpr double kRate = 12.0;
/// A reply later than this after its scheduled send counts as failed.
constexpr double kLatencyLimit = 0.250;
constexpr std::size_t kSampleEvery = 37;
constexpr std::size_t kWarmupRequests = 20;

struct Stack {
  std::shared_ptr<repro::diffusion::TraceDiffusion> model;
  std::unique_ptr<repro::serve::ModelRegistry> registry;
  std::unique_ptr<repro::serve::ShardedService> service;
  std::unique_ptr<wire::SocketServer> server;
  std::unique_ptr<wire::BlockingClient> client;

  /// Stops the loop and the worker, then tears down in dependency order.
  void reset() {
    client.reset();
    if (server) server->stop();
    if (service) service->stop();
    server.reset();
    service.reset();
    registry.reset();
    model.reset();
  }
  ~Stack() { reset(); }
  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
};

void set_up(Stack& s) {
  s.reset();
  s.model = build_model(/*fast_routes=*/false);
  s.registry = std::make_unique<repro::serve::ModelRegistry>();
  s.registry->install("default", s.model, "perfbench");
  repro::serve::ShardedConfig cfg;
  cfg.lanes = 1;
  cfg.service.flightrec_capacity = std::size_t{1} << 16;
  s.service = std::make_unique<repro::serve::ShardedService>(*s.registry, cfg);
  s.server = std::make_unique<wire::SocketServer>(*s.service,
                                                  wire::ServerConfig{});
  // One CPU per thread: lane worker, server loop, client (this thread).
  pin_current_thread(2);
  s.service->start();
  pin_current_thread(1);
  s.server->start();
  pin_current_thread(0);
  s.client = std::make_unique<wire::BlockingClient>(s.server->port());
}

/// A default request: class 0, fp32 / DDIM-20, one flow. With one class
/// every request shares a batch key, so replies come back in send order.
repro::serve::GenerateRequest request_for(std::uint64_t seed) {
  repro::serve::GenerateRequest req;
  req.count = 1;
  req.seed = seed;
  return req;
}

struct Sample {
  std::uint64_t seed = 0;
  std::uint64_t wire_hash = 0;
};

struct SocketPhase {
  std::vector<double> latencies;  ///< seconds, ok replies only
  std::vector<double> send_late;  ///< seconds behind schedule at send
  std::size_t attempted = 0;
  std::size_t ok_in_limit = 0;
  std::size_t replies = 0;
  std::uint64_t packets = 0;
  double wall = 0.0;  ///< phase start -> last reply
  double send_seconds = 0.0;
  double read_seconds = 0.0;
  double backlog_first_half = 0.0;  ///< mean outstanding requests at send
  double backlog_second_half = 0.0;
  double depth_start = 0.0;
  double depth_end = 0.0;
  std::vector<Sample> samples;
};

SocketPhase run_phase(Stack& s, std::uint64_t seed, std::uint64_t stream,
                      double seconds, SpanLog& spans) {
  SocketPhase out;
  const std::vector<double> schedule =
      poisson_schedule(kRate, seconds, seed, stream);
  const std::size_t n = schedule.size();
  std::vector<double> due(n), sent(n), sent_end(n);
  std::vector<double> outstanding_at_send(n);
  const std::uint64_t base = seed * 1'000'003ULL + stream * 100'000ULL;

  out.depth_start = static_cast<double>(s.service->pending());
  const double t0 = wall_now() + 0.005;
  std::size_t next_send = 0;
  std::size_t next_reply = 0;  // one lane, one connection: FIFO replies
  double last_reply = t0;
  const double give_up = t0 + seconds + 10.0;
  while (next_reply < n) {
    double now = wall_now();
    if (next_send < n && now >= t0 + schedule[next_send]) {
      const std::size_t i = next_send++;
      due[i] = t0 + schedule[i];
      outstanding_at_send[i] = static_cast<double>(i - next_reply);
      if (i + 1 == n) {
        out.depth_end = static_cast<double>(s.service->pending());
      }
      s.client->send(request_for(base + i));
      sent[i] = now;
      const double after = wall_now();
      sent_end[i] = after;
      out.send_seconds += after - now;
      out.send_late.push_back(now - due[i]);
      continue;
    }
    if (now > give_up) break;
    const double until_send =
        next_send < n ? t0 + schedule[next_send] - now : give_up - now;
    // read_reply() polls in whole milliseconds, so it is handed the time
    // left until the next send minus 1 ms; inside that last millisecond,
    // or with nothing in flight, the generator sleeps until the send.
    const double budget = until_send - 0.001;
    if (next_reply >= next_send || budget <= 0.0) {
      if (until_send > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            std::min(until_send, 0.0002 + std::max(0.0, budget))));
      }
      continue;
    }
    const double r0 = wall_now();
    std::optional<wire::Reply> reply = s.client->read_reply(budget);
    const double r1 = wall_now();
    out.read_seconds += r1 - r0;
    if (!reply) continue;
    const std::size_t i = next_reply++;
    ++out.replies;
    last_reply = r1;
    const double latency = r1 - due[i];
    if (spans.enabled()) {
      const std::uint64_t id = spans.next_id();
      spans.add(Span{"load.request", due[i], r1, id, 0, base + i});
      spans.add(Span{"serve.net.client.send", sent[i], sent_end[i],
                     spans.next_id(),
                     id, base + i});
    }
    if (reply->ok() && reply->response->status == "ok") {
      out.latencies.push_back(latency);
      if (latency <= kLatencyLimit) ++out.ok_in_limit;
      for (const auto& flow : reply->response->flows) {
        out.packets += flow.packets.size();
      }
      if (i % kSampleEvery == 0) {
        out.samples.push_back(Sample{base + i,
                                     wire::hash_wire_flows(
                                         reply->response->flows)});
      }
    }
  }
  out.attempted = n;
  out.wall = last_reply - t0;
  // Backlog growth: mean outstanding requests at send time, first half
  // of the run against the second half.
  const std::size_t mid = n / 2;
  double first = 0.0, second = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    (i < mid ? first : second) += outstanding_at_send[i];
  }
  out.backlog_first_half = mid > 0 ? first / static_cast<double>(mid) : 0.0;
  out.backlog_second_half =
      n > mid ? second / static_cast<double>(n - mid) : 0.0;
  return out;
}

/// Correctness and accounting common to every phase.
void account(const SocketPhase& phase, const std::string& label,
             Result& result, std::uint64_t& attempted, std::uint64_t& failed) {
  attempted += phase.attempted;
  failed += phase.attempted - phase.ok_in_limit;
  result.checks.expect(phase.replies == phase.attempted,
                       label + ": every request answered (" +
                           std::to_string(phase.replies) + "/" +
                           std::to_string(phase.attempted) + ")");
  check_backlog(result.checks, phase.backlog_first_half,
                phase.backlog_second_half, label);
}

void check_samples(Stack& s, const std::vector<Sample>& samples,
                   const std::string& label, Result& result,
                   std::uint64_t& failed) {
  std::size_t bad = 0;
  for (const Sample& sample : samples) {
    if (!hash_matches_library(*s.model, 0, default_route_options(),
                              sample.seed, sample.wire_hash)) {
      ++bad;
    }
  }
  result.checks.expect(bad == 0, label + ": " + std::to_string(bad) + " of " +
                                     std::to_string(samples.size()) +
                                     " sampled replies differ from "
                                     "generate_seeded (hash_wire_flows)");
  failed += bad;
}

}  // namespace

void run_socket(RunContext& ctx) {
  pin_current_thread(0);
  repro::parallel::set_thread_count(kThreads);
  ctx.provenance.threads = kThreads;
  ctx.provenance.lanes = 1;
  Result& result = ctx.result;
  result.note("socket.rate_rps", kRate);
  result.note("socket.latency_limit_ms", kLatencyLimit * 1e3);

  Stack s;
  const double setup = timed_setup([&] { set_up(s); });

  // Warm-up outside the clock: the first calls fill arenas and caches.
  for (std::size_t i = 0; i < kWarmupRequests; ++i) {
    s.client->call(request_for(0xfeed + i));
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  if (!ctx.options.trace) {
    const SocketPhase phase =
        run_phase(s, ctx.options.seed, 0, ctx.options.seconds, ctx.spans);
    account(phase, "socket", result, attempted, failed);
    // Stop the stack so the library reference calls below are the only
    // users of the model.
    s.client.reset();
    s.server->stop();
    s.service->stop();
    check_samples(s, phase.samples, "socket", result, failed);
    put_latency(result, percentiles(phase.latencies).p50, phase.latencies,
                "request");
    result.metrics["delivered_pps"] =
        phase.wall > 0.0 ? static_cast<double>(phase.packets) / phase.wall
                         : 0.0;
    result.metrics["setup_s"] = setup;
    result.note("requests", static_cast<double>(phase.attempted));
    result.note("send_late_ms_p99", percentiles(phase.send_late).p99 * 1e3);
    result.note("backlog mean first/second half",
                std::to_string(phase.backlog_first_half) + " / " +
                    std::to_string(phase.backlog_second_half));
    result.attempted = attempted;
    result.failed = std::min(failed, attempted);
    return;
  }

  const double half = ctx.options.seconds / 2.0;
  const SocketPhase plain = run_phase(s, ctx.options.seed, 0, half, ctx.spans);
  account(plain, "socket untraced", result, attempted, failed);

  repro::telemetry::Registry::instance().reset();
  repro::telemetry::reset_profile();
  repro::telemetry::set_enabled(true);
  s.service->shard(0).flight_recorder().set_forced(true);
  ctx.spans.set_enabled(true);
  const LayerCounters start = LayerCounters::now();
  const SocketPhase traced = run_phase(s, ctx.options.seed, 1, half, ctx.spans);
  ctx.spans.set_enabled(false);
  repro::telemetry::set_enabled(false);
  account(traced, "socket traced", result, attempted, failed);
  const std::uint64_t calls = put_registry_metrics(result, start);
  put_queue_metrics(result, s.service->shard(0).flight_recorder().dump(),
                    traced.depth_start, traced.depth_end);

  s.client.reset();
  s.server->stop();
  s.service->stop();
  check_samples(s, plain.samples, "socket untraced", result, failed);
  check_samples(s, traced.samples, "socket traced", result, failed);
  result.attempted = attempted;
  result.failed = std::min(failed, attempted);

  put_emit_metrics(result, LayerTotals{});
  // The probes need the fast routes; this workload's model has only the
  // default route, so a probe model is fitted after the clock stops.
  const auto probe_model = build_model(/*fast_routes=*/true);
  run_probes(*probe_model, distilled_route_options(kProbePrecision),
             result);
  double latency_sum = 0.0;
  for (const double l : traced.latencies) latency_sum += l;
  result.metrics["diffusion.coverage"] =
      latency_sum > 0.0 ? static_cast<double>(calls) *
                              result.metrics["diffusion.call_ms_b1"] / 1e3 /
                              latency_sum
                        : 0.0;
  result.metrics["load.send_late_ms_p99"] =
      percentiles(traced.send_late).p99 * 1e3;
  const double p50_plain = percentiles(plain.latencies).p50;
  const double p50_traced = percentiles(traced.latencies).p50;
  result.metrics["load.trace_overhead_pct"] =
      p50_plain > 0.0 ? (p50_traced - p50_plain) / p50_plain * 100.0 : 0.0;
  result.note("model_calls (traced phase)", static_cast<double>(calls));
  result.note("latency_p50_ms untraced / traced",
              std::to_string(p50_plain * 1e3) + " / " +
                  std::to_string(p50_traced * 1e3));
  result.note("client send / read seconds (traced)",
              std::to_string(traced.send_seconds) + " / " +
                  std::to_string(traced.read_seconds));
}

}  // namespace perfbench

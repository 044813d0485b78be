// Tests of the benchmark's own code: the seeded arrival schedule, the
// timing wrappers, the correctness checks, and the metric tables that
// BENCHMARK.json mirrors.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "decorators.hpp"
#include "flowgen/catalog.hpp"
#include "flowgen/tcp_session.hpp"
#include "harness.hpp"
#include "replay/emit/source.hpp"
#include "serve/net/protocol.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<repro::net::Flow> tiny_pool(std::size_t n) {
  repro::Rng rng(5);
  std::vector<repro::net::Flow> pool;
  for (std::size_t i = 0; i < n; ++i) {
    repro::flowgen::Endpoints ep;
    ep.client_addr = 0x0A000001u + static_cast<std::uint32_t>(i);
    ep.server_addr = 0x0D000001u;
    ep.client_port = static_cast<std::uint16_t>(20000 + i);
    ep.server_port = 443;
    pool.push_back(repro::flowgen::generate_tcp_flow(
        repro::flowgen::app_profile(repro::flowgen::App::kAmazon), ep, 10,
        rng));
  }
  return pool;
}

TEST(Schedule, SameSeedSameArrivals) {
  const auto a = poisson_schedule(25.0, 4.0, 7, 0);
  const auto b = poisson_schedule(25.0, 4.0, 7, 0);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 100u);
  EXPECT_NE(a, poisson_schedule(25.0, 4.0, 8, 0));
  EXPECT_NE(a, poisson_schedule(25.0, 4.0, 7, 1));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_GE(a[i], 0.0);
    EXPECT_LT(a[i], 4.0);
    if (i > 0) {
      EXPECT_LE(a[i - 1], a[i]);
    }
  }
}

TEST(Decorators, ChildTimesSumToTheRunsWallTime) {
  const auto pool = tiny_pool(300);
  SpanLog spans;
  spans.set_enabled(true);
  Checks checks;
  const double t0 = wall_now();
  repro::replay::emit::VectorFlowSource source(pool, /*loop=*/true);
  const EmitPhase phase = run_emit_rounds(
      0.05, /*traced=*/true, 1, pool.size(), /*chunk_flows=*/100, 0, spans,
      checks,
      [&](std::uint64_t, std::uint64_t) -> repro::replay::emit::FlowSource& {
        return source;
      });
  const double wall = wall_now() - t0;
  EXPECT_EQ(checks.failures(), 0u);
  const LayerTotals& t = phase.totals;
  // Rounds account for the run's wall time.
  EXPECT_LE(t.phase_seconds, wall);
  EXPECT_GE(t.phase_seconds, 0.9 * wall);
  // Round spans cover exactly the phase time.
  double round_spans = 0.0;
  for (const Span& s : spans.spans()) {
    if (std::string(s.name) == "replay.emit.round") {
      round_spans += s.end - s.start;
    }
  }
  EXPECT_NEAR(round_spans, t.phase_seconds, 1e-9);
  // Children fit inside their parent and leave the emitter a self time.
  const double children = t.source_seconds + t.chain_seconds + t.pcap_seconds;
  EXPECT_GT(t.source_seconds, 0.0);
  EXPECT_GT(t.chain_seconds, 0.0);
  EXPECT_GT(t.pcap_seconds, 0.0);
  EXPECT_LT(children, t.phase_seconds);
  EXPECT_EQ(phase.latencies.size(), phase.flows_emitted);
  EXPECT_EQ(t.packets, phase.flows_emitted * 10);
  // Three 100-flow chunks per 300-flow round.
  EXPECT_EQ(phase.chunk_pps.size(), 3 * phase.rounds);
  EXPECT_EQ(phase.chunk_p50.size(), 3 * phase.rounds);
}

TEST(Decorators, TrackerCutsChunksOfFixedFlowCount) {
  const auto pool = tiny_pool(1);
  DeliveryTracker tracker(/*max_samples=*/64, /*chunk_flows=*/4);
  const auto deliver = [&](int flows) {
    for (int i = 0; i < flows; ++i) {
      tracker.fetched(wall_now(), pool[0]);
      for (const auto& p : pool[0].packets) tracker.delivered(p);
    }
  };
  tracker.start_chunk(wall_now());
  deliver(10);
  ASSERT_EQ(tracker.chunks().size(), 2u);
  for (const auto& chunk : tracker.chunks()) {
    EXPECT_GT(chunk.pps, 0.0);
    EXPECT_GT(chunk.p50_seconds, 0.0);
  }
  // A new start drops the two flows of the unfinished chunk.
  tracker.start_chunk(wall_now());
  deliver(3);
  EXPECT_EQ(tracker.chunks().size(), 2u);
  deliver(1);
  EXPECT_EQ(tracker.chunks().size(), 3u);
  EXPECT_EQ(tracker.mismatches(), 0u);
}

TEST(Checks, DeliveryTrackerFlagsACorruptedPacket) {
  const auto pool = tiny_pool(2);
  DeliveryTracker tracker;
  tracker.fetched(wall_now(), pool[0]);
  for (const auto& p : pool[0].packets) tracker.delivered(p);
  EXPECT_EQ(tracker.mismatches(), 0u);
  EXPECT_EQ(tracker.flows_completed(), 1u);

  tracker.fetched(wall_now(), pool[1]);
  repro::net::Packet corrupted = pool[1].packets[3];
  corrupted.tcp->seq += 1;
  for (std::size_t i = 0; i < pool[1].packets.size(); ++i) {
    tracker.delivered(i == 3 ? corrupted : pool[1].packets[i]);
  }
  EXPECT_EQ(tracker.mismatches(), 1u);
  // A packet with no flow in flight is a mismatch too.
  tracker.delivered(pool[1].packets[0]);
  EXPECT_EQ(tracker.mismatches(), 2u);
}

TEST(Decorators, DeliveryLatenciesStayBounded) {
  const auto pool = tiny_pool(1);
  DeliveryTracker tracker(/*max_samples=*/64);
  for (int i = 0; i < 1000; ++i) {
    tracker.fetched(wall_now(), pool[0]);
    for (const auto& p : pool[0].packets) tracker.delivered(p);
  }
  EXPECT_EQ(tracker.flows_completed(), 1000u);
  EXPECT_EQ(tracker.latencies().size(), 64u);
  EXPECT_EQ(tracker.mismatches(), 0u);
}

TEST(Checks, LibraryReferenceFlagsACorruptedFlowOrHash) {
  auto model = build_model(/*fast_routes=*/false);
  auto opts = default_route_options();
  opts.ddim_steps = 4;
  auto flows = model->generate_seeded(1, opts, 42);
  ASSERT_EQ(flows.size(), 1u);
  const auto hash_of = [](const repro::net::Flow& f) {
    return repro::serve::wire::hash_flows({f});
  };
  EXPECT_TRUE(hash_matches_library(*model, 1, opts, 42, hash_of(flows[0])));
  EXPECT_FALSE(hash_matches_library(*model, 1, opts, 43, hash_of(flows[0])));
  repro::net::Flow corrupted = flows[0];
  ASSERT_FALSE(corrupted.packets.empty());
  corrupted.packets[0].ip.ttl ^= 1;
  EXPECT_FALSE(hash_matches_library(*model, 1, opts, 42, hash_of(corrupted)));

  // Socket form: the hash of the decoded reply.
  repro::serve::Response response;
  response.flows = flows;
  std::vector<std::uint8_t> frame;
  repro::serve::wire::append_response_frame(frame, response);
  repro::serve::wire::FrameDecoder decoder;
  decoder.feed(frame.data(), frame.size());
  repro::serve::wire::Frame decoded;
  ASSERT_EQ(decoder.next(decoded), repro::serve::wire::DecodeStatus::kFrame);
  const auto wire = repro::serve::wire::parse_response_payload(decoded.payload);
  ASSERT_TRUE(wire.has_value());
  const std::uint64_t wire_hash =
      repro::serve::wire::hash_wire_flows(wire->flows);
  EXPECT_TRUE(hash_matches_library(*model, 1, opts, 42, wire_hash));
  EXPECT_FALSE(hash_matches_library(*model, 1, opts, 42, wire_hash ^ 1));
}

TEST(Checks, AcceptanceAndBacklogChecksFire) {
  Checks checks;
  EXPECT_TRUE(check_acceptance(checks, 100, 100, "t"));
  EXPECT_FALSE(check_acceptance(checks, 99, 100, "t"));
  EXPECT_FALSE(check_acceptance(checks, 0, 0, "t"));
  EXPECT_TRUE(check_backlog(checks, 0.6, 1.2, "t"));
  EXPECT_FALSE(check_backlog(checks, 0.6, 3.0, "t"));
  EXPECT_EQ(checks.total(), 5u);
  EXPECT_EQ(checks.failures(), 3u);
}

/// The "name" values of BENCHMARK.json in file order.
std::vector<std::string> spec_names() {
  std::ifstream in(PERFBENCH_SPEC);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  std::vector<std::string> names;
  const std::string key = "\"name\"";
  for (std::size_t pos = text.find(key); pos != std::string::npos;
       pos = text.find(key, pos + 1)) {
    const std::size_t open = text.find('"', text.find(':', pos) + 1);
    const std::size_t close = text.find('"', open + 1);
    names.push_back(text.substr(open + 1, close - open - 1));
  }
  return names;
}

TEST(MetricNames, MatchBenchmarkJson) {
  std::vector<std::string> expected;
  for (const auto& w : workload_names()) expected.push_back(w);
  for (const auto& m : end_to_end_metrics()) expected.push_back(m.name);
  for (const auto& m : per_layer_metrics()) expected.push_back(m.name);
  EXPECT_EQ(spec_names(), expected);
}

TEST(MetricNames, PrintedResultCarriesExactlyTheTable) {
  Options options;
  options.workload = "unit";
  Provenance provenance;
  Result result;
  result.attempted = 1;
  for (const auto& m : end_to_end_metrics()) result.metrics[m.name] = 1.5;
  testing::internal::CaptureStdout();
  EXPECT_TRUE(print_result(options, provenance, result));
  const std::string out = testing::internal::GetCapturedStdout();
  const std::string last = out.substr(out.rfind('\n', out.size() - 2) + 1);
  EXPECT_EQ(last.rfind("{\"correct\":true", 0), 0u) << last;
  for (const auto& m : end_to_end_metrics()) {
    EXPECT_NE(last.find(std::string("\"") + m.name + "\":{\"value\""),
              std::string::npos)
        << m.name;
  }
  result.metrics.erase("setup_s");
  testing::internal::CaptureStdout();
  EXPECT_FALSE(print_result(options, provenance, result));
  testing::internal::GetCapturedStdout();
}

}  // namespace
}  // namespace perfbench

// Emitter rounds shared by the pipeline and replay workloads.
#include <algorithm>
#include <memory>
#include <ostream>
#include <string>

#include "decorators.hpp"
#include "replay/conntrack.hpp"
#include "replay/emit/emitter.hpp"
#include "replay/functions.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace emit = repro::replay::emit;

namespace {

/// Virtual wire pacing: 1000 flows/s (a 1 ms gap) with intra-flow gaps
/// scaled by 1e-9, so even a 10^5 s flow spans 0.1 ms on the wire and
/// flows never interleave. The host runs as fast as it can on
/// the virtual pacer; these figures only fix the event order.
constexpr double kPacketsPerFlowHint = 10.0;
constexpr double kVirtualFlowRate = 1000.0;
constexpr double kTimeScale = 1e-9;
constexpr std::uint32_t kNatAddress = 0xC0A80001u;

bool checks_round(Checks& checks, bool ok, const char* what) {
  checks.expect(ok, std::string("round: ") + what);
  return ok;
}

}  // namespace

EmitPhase run_emit_rounds(
    double seconds, bool traced, std::uint64_t seed,
    std::uint64_t flows_per_round, std::size_t chunk_flows,
    std::size_t sample_every, SpanLog& spans, Checks& checks,
    const std::function<emit::FlowSource&(
        std::uint64_t round, std::uint64_t first_ordinal)>& source_for) {
  EmitPhase out;
  DeliveryTracker tracker(std::size_t{1} << 18, chunk_flows);
  const double phase_start = wall_now();
  std::uint64_t ordinal = 0;
  while (out.rounds == 0 || wall_now() - phase_start < seconds) {
    const std::uint64_t round = out.rounds++;
    emit::FlowSource& inner = source_for(round, ordinal);

    emit::ChainSink chain;
    auto conntrack = std::make_unique<repro::replay::ConntrackFunction>();
    const repro::replay::ConntrackFunction* tracked = conntrack.get();
    chain.engine().add_function(std::move(conntrack));
    chain.engine().add_function(
        std::make_unique<repro::replay::SourceNat>(kNatAddress));
    MemoryStreamBuf pcap_buffer;
    std::ostream pcap_stream(&pcap_buffer);
    emit::PcapSink pcap(pcap_stream);

    emit::EmitConfig config;
    config.packets_per_flow_hint =
        static_cast<std::size_t>(kPacketsPerFlowHint);
    config.target_pps = kVirtualFlowRate * kPacketsPerFlowHint;
    config.total_flows = flows_per_round;
    config.arrival = emit::Arrival::kFixedRate;
    config.time_scale = kTimeScale;
    config.seed = seed + round;

    const std::uint64_t round_span = spans.next_id();
    const double t0 = wall_now();
    tracker.start_chunk(t0);
    TimedSource source(inner, tracker, spans, round_span, ordinal,
                       sample_every);
    TeeSink tee({&chain, &pcap}, tracker, traced);
    emit::VirtualPacer pacer;
    emit::OpenLoopEmitter emitter(config, source, pacer, tee);
    const emit::EmitReport report = emitter.run();
    const double t1 = wall_now();
    spans.add(Span{"replay.emit.round", t0, t1, round_span, 0, round + 1});

    ordinal += source.fetched();
    out.flows_emitted += report.flows_emitted;

    const bool round_ok =
        checks_round(checks, report.conserved(), "event conservation") &
        checks_round(checks, pcap.packets_written() == report.packets_emitted,
                     "pcap records == packets emitted") &
        checks_round(checks,
                     chain.report().input_packets == report.packets_emitted,
                     "chain input == packets emitted") &
        checks_round(checks, tracker.in_flight() == 0,
                     "every fetched flow delivered");
    if (!round_ok) out.failed_flows += report.flows_scheduled;

    LayerTotals& t = out.totals;
    t.phase_seconds += t1 - t0;
    t.source_seconds += source.seconds();
    t.chain_seconds += tee.child_seconds(0);
    t.pcap_seconds += tee.child_seconds(1);
    t.packets += tee.packets();
    t.pcap_bytes += pcap_buffer.bytes();
    t.flows_scheduled += report.flows_scheduled;
    t.underruns += report.underruns;
    const repro::replay::ConntrackStats& ct = tracked->stats();
    t.tcp_packets += ct.tcp_packets;
    t.tcp_accepted += ct.tcp_accepted;
    t.connections = std::max<std::uint64_t>(t.connections,
                                            ct.connections_tracked);
    out.samples.insert(out.samples.end(), source.samples().begin(),
                       source.samples().end());
  }
  checks.expect(tracker.mismatches() == 0,
                "delivered packets match their flows in order (" +
                    std::to_string(tracker.mismatches()) + " mismatches)");
  if (tracker.mismatches() > 0) out.failed_flows = out.totals.flows_scheduled;
  out.latencies = tracker.latencies();
  for (const DeliveryTracker::Chunk& chunk : tracker.chunks()) {
    out.chunk_pps.push_back(chunk.pps);
    out.chunk_p50.push_back(chunk.p50_seconds);
  }
  return out;
}

}  // namespace perfbench

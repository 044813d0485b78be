// Timing wrappers around the emitter's public seams. They observe the
// layers from outside: a FlowSource decorator timing each fetch, a
// PacketSink tee timing each child sink, and a delivery tracker that
// turns "flow asked for" and "its last packet handed to the sinks" into
// one latency sample per flow.
//
// The tracker also cuts the delivered stream into chunks of a fixed
// number of flows and times each one, so a run yields many short rate
// and latency samples rather than one long average.
//
// Delivery latency relies on flows reaching the sinks one after another
// (the workloads pace flows so that a flow's wire span is far shorter
// than the gap to the next arrival). Every delivered packet is compared
// with the fingerprint of the packet the tracker expects next, so an
// interleaving or a reordering is counted as a mismatch — a failed check
// — rather than silently skewing the latency.
#pragma once

#include <cstdint>
#include <deque>
#include <streambuf>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "harness.hpp"
#include "net/flow.hpp"
#include "replay/emit/sink.hpp"
#include "replay/emit/source.hpp"

namespace perfbench {

/// Header identity of a packet: addresses, ports, TCP seq/ack and the
/// payload length. Cheap enough to compute per packet at host rate.
std::uint64_t packet_fingerprint(const repro::net::Packet& packet) noexcept;

class DeliveryTracker {
 public:
  /// One chunk of `chunk_flows` consecutive completed flows.
  struct Chunk {
    double pps = 0.0;          ///< packets delivered per wall second
    double p50_seconds = 0.0;  ///< median delivery latency of its flows
  };

  /// Keeps every latency up to `max_samples`, then a uniform reservoir of
  /// that size (deterministic), so the benchmark's own memory does not
  /// grow with throughput and peak RSS keeps measuring the program.
  /// With `chunk_flows` > 0 every `chunk_flows` completed flows close a
  /// chunk (see start_chunk).
  explicit DeliveryTracker(std::size_t max_samples = std::size_t{1} << 18,
                           std::size_t chunk_flows = 0);

  /// A flow fetched at `ask_time` (wall seconds) enters the FIFO.
  void fetched(double ask_time, const repro::net::Flow& flow);

  /// One packet reached every sink. Completes the front flow when this
  /// was its last packet; the clock is read only then.
  void delivered(const repro::net::Packet& packet);

  /// Wall seconds from fetch request to last packet: one per flow, or
  /// the reservoir once more than `max_samples` flows completed.
  const std::vector<double>& latencies() const noexcept { return latencies_; }
  /// Starts a chunk at wall time `start`, dropping the flows of any
  /// unfinished one. Call it where a round's clock starts.
  void start_chunk(double start);
  /// Every chunk closed so far, in order.
  const std::vector<Chunk>& chunks() const noexcept { return chunks_; }
  std::uint64_t mismatches() const noexcept { return mismatches_; }
  std::uint64_t flows_completed() const noexcept { return completed_; }
  std::size_t in_flight() const noexcept { return fifo_.size(); }

 private:
  struct Entry {
    double ask_time = 0.0;
    std::vector<std::uint64_t> fingerprints;
    std::size_t next = 0;
  };
  void complete_front();
  void record(double latency, double now);

  std::deque<Entry> fifo_;
  std::size_t max_samples_;
  repro::Rng reservoir_rng_{0x5eed};
  std::vector<double> latencies_;
  std::size_t chunk_flows_;
  double chunk_start_ = 0.0;
  std::uint64_t chunk_packets_ = 0;
  std::vector<double> chunk_latencies_;
  std::vector<Chunk> chunks_;
  std::uint64_t mismatches_ = 0;
  std::uint64_t completed_ = 0;
};

/// FlowSource decorator: times each next_flow() call of the wrapped
/// source, hands fetched flows to the tracker, keeps the content hash
/// (serve::wire::hash_flows) of every `sample_every`-th flow (by fetch
/// ordinal) for the correctness checks, and records one span per fetch
/// when tracing. Hashes rather than copies keep the benchmark's own
/// memory flat, so peak RSS measures the program.
class TimedSource final : public repro::replay::emit::FlowSource {
 public:
  TimedSource(repro::replay::emit::FlowSource& inner, DeliveryTracker& tracker,
              SpanLog& spans, std::uint64_t parent_span,
              std::uint64_t first_ordinal, std::size_t sample_every);

  std::string name() const override { return "timed:" + inner_.name(); }
  std::optional<repro::net::Flow> next_flow() override;
  bool exhausted() const override { return inner_.exhausted(); }

  double seconds() const noexcept { return seconds_; }
  std::uint64_t fetched() const noexcept { return fetched_; }
  /// (fetch ordinal, content hash) of the sampled flows.
  const std::vector<std::pair<std::uint64_t, std::uint64_t>>& samples()
      const noexcept {
    return samples_;
  }

 private:
  repro::replay::emit::FlowSource& inner_;
  DeliveryTracker& tracker_;
  SpanLog& spans_;
  std::uint64_t parent_span_;
  std::uint64_t ordinal_;
  std::size_t sample_every_;
  double seconds_ = 0.0;
  std::uint64_t fetched_ = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> samples_;
};

/// PacketSink tee: forwards each packet to every child in order, then
/// reports it to the tracker. With `timed` set it also accumulates the
/// wall time spent inside each child.
class TeeSink final : public repro::replay::emit::PacketSink {
 public:
  TeeSink(std::vector<repro::replay::emit::PacketSink*> children,
          DeliveryTracker& tracker, bool timed);

  std::string name() const override { return "tee"; }
  void emit(const repro::net::Packet& packet, double time) override;
  void finish() override;

  std::uint64_t packets() const noexcept { return packets_; }
  /// Wall seconds spent in child `i` (0 unless timed).
  double child_seconds(std::size_t i) const { return child_seconds_.at(i); }

 private:
  std::vector<repro::replay::emit::PacketSink*> children_;
  std::vector<double> child_seconds_;
  DeliveryTracker& tracker_;
  bool timed_;
  std::uint64_t packets_ = 0;
};

/// std::streambuf that writes into a fixed in-memory buffer and wraps
/// around when it fills: the pcap writer does its full serialization
/// and copy work, while memory stays bounded for long runs.
class MemoryStreamBuf final : public std::streambuf {
 public:
  explicit MemoryStreamBuf(std::size_t capacity = std::size_t{1} << 16);

  /// Total bytes written through the buffer.
  std::uint64_t bytes() const noexcept;

 protected:
  int_type overflow(int_type ch) override;

 private:
  std::vector<char> buffer_;
  std::uint64_t wrapped_ = 0;
};

}  // namespace perfbench

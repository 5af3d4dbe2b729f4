// Concrete structured-trace sinks (san::TraceSink implementations):
//
//  * RingBufferSink — in-memory, bounded, keeps the *tail* of the run;
//    the programmatic inspection surface (tests, debuggers) and the
//    replay buffer the experiment runner uses to forward per-replication
//    streams in replication order.
//  * JsonlSink — one JSON object per line, schema documented in
//    docs/OBSERVABILITY.md. Deterministic bytes for a given event
//    stream (doubles rendered with %.17g, no timestamps, no pointers).
//  * ChromeTraceSink — Chrome trace_event JSON ("chrome://tracing",
//    Perfetto). One simulated tick maps to 1ms of timeline; marking
//    events of numeric places become counter tracks.
//
// Sinks for CLI consumption are constructed through make_stream_sink();
// an unknown sink name throws with the valid names listed (same
// ergonomics as sched::make_factory's unknown-algorithm error).
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "san/trace.hpp"

namespace vcpusim::trace {

/// A trace event that owns its strings (sinks that retain events copy
/// out of the callback-scoped TraceEvent views).
struct OwnedTraceEvent {
  san::TraceCategory category = san::TraceCategory::kFire;
  san::Time time = 0.0;
  std::uint64_t seq = 0;
  std::string name;
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::string detail;

  static OwnedTraceEvent from(const san::TraceEvent& event);
  /// A view aliasing this event's storage (valid while it lives).
  san::TraceEvent view() const;

  bool operator==(const OwnedTraceEvent&) const = default;
};

class RingBufferSink final : public san::TraceSink {
 public:
  /// Keep at most `capacity` events (0 = unbounded); older events are
  /// dropped first.
  explicit RingBufferSink(std::size_t capacity = 0,
                          std::uint8_t categories = san::kTraceAll)
      : san::TraceSink(categories), capacity_(capacity) {}

  void on_event(const san::TraceEvent& event) override;

  const std::vector<OwnedTraceEvent>& entries() const noexcept {
    return entries_;
  }
  std::size_t total_events() const noexcept { return total_; }
  std::size_t dropped() const noexcept { return total_ - entries_.size(); }

  /// Number of retained events of one category.
  std::size_t count(san::TraceCategory category) const;

  /// Forward every retained event into `sink`, in order (how the
  /// experiment runner stitches per-replication streams together).
  void replay_into(san::TraceSink& sink) const;

  void clear() noexcept {
    entries_.clear();
    total_ = 0;
  }

 private:
  std::size_t capacity_;
  std::vector<OwnedTraceEvent> entries_;
  std::size_t total_ = 0;
};

class JsonlSink final : public san::TraceSink {
 public:
  /// Writes to `os`, which must outlive the sink. The stream is flushed
  /// by finish().
  explicit JsonlSink(std::ostream& os, std::uint8_t categories = san::kTraceAll)
      : san::TraceSink(categories), os_(&os) {}

  void on_event(const san::TraceEvent& event) override;
  void finish() override;

  /// The serialized line for one event (no trailing newline) — exposed
  /// so tests and the golden fixtures pin the exact format.
  static std::string line(const san::TraceEvent& event);

 private:
  std::ostream* os_;
};

class ChromeTraceSink final : public san::TraceSink {
 public:
  explicit ChromeTraceSink(std::ostream& os,
                           std::uint8_t categories = san::kTraceAll)
      : san::TraceSink(categories), os_(&os) {}

  void on_event(const san::TraceEvent& event) override;
  /// Closes the traceEvents array; on_event after finish() is invalid.
  void finish() override;

 private:
  std::ostream* os_;
  bool open_ = false;
  bool first_ = true;
};

/// Valid names for make_stream_sink, sorted.
const std::vector<std::string>& stream_sink_names();

/// Construct a named stream sink ("jsonl", "chrome") writing to `os`.
/// Throws std::invalid_argument listing the valid sink names on an
/// unknown name.
std::unique_ptr<san::TraceSink> make_stream_sink(const std::string& name,
                                                 std::ostream& os,
                                                 std::uint8_t categories =
                                                     san::kTraceAll);

/// Parse a comma-separated category list ("fire,sched", "all") into a
/// TraceSink categories mask. Throws std::invalid_argument listing the
/// valid category names on an unknown entry.
std::uint8_t parse_trace_categories(const std::string& list);

}  // namespace vcpusim::trace

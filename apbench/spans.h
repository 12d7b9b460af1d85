// In-memory span recorder of the benchmark's traced mode.
//
// Spans are recorded by the benchmark itself, around its own calls into
// each layer of the program (api submit/ticket, synchronous detect_frame,
// sorted QR, path selection), never from inside the program.  Recording is
// single-threaded (only the load-generating thread records) and
// allocation-free once constructed: the span buffer is reserved up front
// and spans past its capacity are counted as dropped.  The spans are
// written once, at exit, as Chrome trace-event JSON ("X" events with
// thread_name metadata) that tools/trace_dump --validate accepts.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace apbench {

using Clock = std::chrono::steady_clock;

class SpanRecorder {
 public:
  /// `capacity` spans are reserved; `epoch` is time zero of the export.
  SpanRecorder(std::size_t capacity, Clock::time_point epoch);

  /// Registers a named track (one trace-viewer row); returns its id.
  std::uint32_t add_track(const std::string& name);

  /// Reserves a span id, so children can name a parent recorded later.
  std::uint64_t reserve_id() noexcept { return next_id_++; }

  /// Records span `id` (from reserve_id).  `name` must be a string
  /// literal.  parent == 0 marks a root span.
  void record(std::uint64_t id, const char* name, std::uint32_t track,
              std::uint64_t parent, std::uint64_t frame,
              Clock::time_point start, Clock::time_point end) noexcept;

  /// Convenience: reserve an id and record in one call; returns the id.
  std::uint64_t record(const char* name, std::uint32_t track,
                       std::uint64_t parent, std::uint64_t frame,
                       Clock::time_point start, Clock::time_point end) noexcept {
    const std::uint64_t id = reserve_id();
    record(id, name, track, parent, frame, start, end);
    return id;
  }

  std::size_t size() const noexcept { return spans_.size(); }
  std::size_t dropped() const noexcept { return dropped_; }

  /// Writes the Chrome trace-event JSON; false on an I/O error.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint32_t track;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t frame;
    Clock::time_point start;
    Clock::time_point end;
  };
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::string> tracks_;
  std::uint64_t next_id_ = 1;
  std::size_t dropped_ = 0;
};

}  // namespace apbench

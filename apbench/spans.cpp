#include "spans.h"

#include <algorithm>
#include <cstdio>

namespace apbench {

SpanRecorder::SpanRecorder(std::size_t capacity, Clock::time_point epoch)
    : epoch_(epoch) {
  spans_.reserve(capacity);
}

std::uint32_t SpanRecorder::add_track(const std::string& name) {
  tracks_.push_back(name);
  return static_cast<std::uint32_t>(tracks_.size() - 1);
}

void SpanRecorder::record(std::uint64_t id, const char* name,
                          std::uint32_t track, std::uint64_t parent,
                          std::uint64_t frame, Clock::time_point start,
                          Clock::time_point end) noexcept {
  if (spans_.size() == spans_.capacity()) {
    ++dropped_;
    return;
  }
  spans_.push_back({name, track, id, parent, frame, start, end});
}

bool SpanRecorder::write_chrome_json(const std::string& path) const {
  // Per track, events sorted by start; a parent sharing its child's start
  // (longer span) comes first so viewers nest them.
  std::vector<const Span*> order;
  order.reserve(spans_.size());
  for (const Span& s : spans_) order.push_back(&s);
  std::sort(order.begin(), order.end(), [](const Span* a, const Span* b) {
    if (a->track != b->track) return a->track < b->track;
    if (a->start != b->start) return a->start < b->start;
    return a->end > b->end;
  });

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  };
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (std::size_t t = 0; t < tracks_.size(); ++t) {
    std::fprintf(f,
                 "%s{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                 "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", t, tracks_[t].c_str());
    first = false;
  }
  for (const Span* s : order) {
    const double ts = us(s->start);
    const double dur = std::max(0.0, us(s->end) - ts);
    std::fprintf(f,
                 "%s{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"frame\":%llu}}",
                 first ? "" : ",\n", s->name, s->track, ts, dur,
                 static_cast<unsigned long long>(s->id),
                 static_cast<unsigned long long>(s->parent),
                 static_cast<unsigned long long>(s->frame));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace apbench

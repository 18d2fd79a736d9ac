// Timeline: ASCII Gantt / CSV renderer over an obs::Tracer span stream.
//
// Historically the Timeline stored spans itself; it is now a *view* plus
// renderer: `add()` records into an owned tracer, and every accessor derives
// from the tracer's event buffer. Attaching a Timeline's tracer to a Network
// or Cluster (`attach_tracer(&tl.tracer())`) therefore also captures flow
// arrows, counters, and lifecycle records on the same tracer — export them
// with `tracer().write_chrome_json` — while the ASCII rendering used to
// regenerate Figs 4 and 6 stays byte-identical to the original
// implementation.
#pragma once

#include <string>
#include <vector>

#include "common/units.h"
#include "obs/tracer.h"

namespace p3::trace {

struct Span {
  std::string lane;
  TimeS start = 0.0;
  TimeS end = 0.0;
  std::string label;  ///< first character is used as the Gantt fill glyph
};

class Timeline {
 public:
  void add(std::string lane, TimeS start, TimeS end, std::string label);

  /// All spans in insertion order (materialized from the tracer buffer).
  std::vector<Span> spans() const;
  bool empty() const;
  void clear() { tracer_.clear(); }

  /// Spans on one lane, sorted by start time.
  std::vector<Span> lane_spans(const std::string& lane) const;

  /// Lanes in first-seen order.
  std::vector<std::string> lanes() const;

  /// Latest span end (0 if empty).
  TimeS end_time() const;

  /// Render [t0, t1) with one character per `unit` seconds. Each lane is a
  /// row; overlapping spans on one lane overwrite left-to-right by start
  /// time. Empty cells render '.', span cells render the first label char.
  std::string to_ascii(TimeS unit, TimeS t0, TimeS t1) const;

  /// Render the whole recorded range.
  std::string to_ascii(TimeS unit) const { return to_ascii(unit, 0.0, end_time()); }

  /// Dump spans as CSV (lane,start,end,label).
  void write_csv(const std::string& path) const;

  /// The backing tracer; use it to export Chrome/Perfetto JSON or to feed
  /// lifecycle records into obs::analysis.
  obs::Tracer& tracer() { return tracer_; }
  const obs::Tracer& tracer() const { return tracer_; }

 private:
  obs::Tracer tracer_;
};

}  // namespace p3::trace

//===- engine/TraceLog.h - Structured search tracing -----------*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A per-point search log that no engine code uses any more; it stays
/// only because perfbench still compiles against it, until perfbench's
/// engine split stops re-timing it (ROADMAP.md).
///
//===----------------------------------------------------------------------===//

#ifndef ECO_ENGINE_TRACELOG_H
#define ECO_ENGINE_TRACELOG_H

#include "support/Sync.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace eco {

/// One evaluated (or cache-served) point.
struct TraceRecord {
  uint64_t Seq = 0;        ///< global order of completion
  double TimeMs = 0;       ///< monotonic start timestamp (ms on the
                           ///  obs::monotonicMicros timeline, shared
                           ///  with events); append() stamps it when the
                           ///  caller leaves it 0
  std::string Variant;     ///< variant name ("v1", "rank", ...)
  std::string Stage;       ///< search stage ("register", "tile0", ...)
  std::string Config;      ///< configString of the point
  double Cost = 0;
  bool CacheHit = false;
  bool Warm = false;       ///< issued speculatively by a warm batch
  double Millis = 0;       ///< wall time of this evaluation
  int Lane = 0;            ///< pool lane (0 = the search thread)
};

/// Thread-safe collector of TraceRecords with optional JSONL streaming.
class TraceLog {
public:
  TraceLog() = default;
  ~TraceLog();

  TraceLog(const TraceLog &) = delete;
  TraceLog &operator=(const TraceLog &) = delete;

  /// Starts streaming records to \p Path (JSON Lines, one record each).
  /// \p Append keeps any existing contents (a resumed tune must not
  /// clobber the records its killed predecessor streamed); the default
  /// truncates. Returns false if the file cannot be opened.
  bool openFile(const std::string &Path, bool Append = false);

  /// Appends one record (assigns its Seq). Thread-safe.
  void append(TraceRecord R);

  /// Copy of everything recorded so far.
  std::vector<TraceRecord> records() const;
  size_t numRecords() const;

  /// Flushes the JSONL stream (records are written as they arrive).
  void flush();

private:
  mutable Mutex M{"engine.trace"};
  std::vector<TraceRecord> Records ECO_GUARDED_BY(M);
  uint64_t NextSeq ECO_GUARDED_BY(M) = 0;
  std::FILE *Out ECO_GUARDED_BY(M) = nullptr;
};

/// Renders \p R as a single JSONL line (no trailing newline).
std::string traceRecordJson(const TraceRecord &R);

} // namespace eco

#endif // ECO_ENGINE_TRACELOG_H

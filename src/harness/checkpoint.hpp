// Sweep checkpoint journal ("fgpar-ckpt-v1").
//
// A resilient sweep survives being killed — including kill -9 — between
// points: every completed point is journaled to a small text file, and a
// resumed run skips the points the journal already holds, reproducing the
// exact artifact an uninterrupted run would have written (the payloads are
// the deterministic per-point results, so replay-from-journal and
// recompute are byte-identical by construction).
//
// Format, line-oriented text so a human can inspect progress mid-sweep:
//
//   fgpar-ckpt-v1 <name> <fingerprint-hex16>
//   point <index> <hex payload>
//   ...
//
// The fingerprint is an FNV-1a hash over the sweep's name, point count,
// and per-point labels: a journal written for one grid can never be
// (mis)applied to another — edits to the kernel set, the core counts, or
// the point order all change the fingerprint and are rejected with a
// clear error instead of silently mixing results.
//
// The header ends at the fingerprint.  A trailing token (such as the
// `slice=<hex16>` that older builds stamped on per-worker journals) is
// rejected, so a journal of part of a grid can never resume as the whole.
//
// Durability: the journal is rewritten whole through a temp file and an
// atomic rename on every recorded point.  A crash at any instant leaves
// either the previous journal or the new one, never a torn file; grids
// are at most a few hundred points, so the rewrite is microseconds.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace fgpar::harness {

/// Fingerprint of a sweep grid: name, point count, and point labels in
/// order.  Stable across hosts and runs (FNV-1a over the text).
std::uint64_t GridFingerprint(std::string_view name,
                              const std::vector<std::string>& labels);

class SweepCheckpoint {
 public:
  /// A fresh, empty journal bound to (path, name, fingerprint).  Nothing
  /// is written until the first RecordPoint.
  SweepCheckpoint(std::string path, std::string name,
                  std::uint64_t fingerprint);

  /// Loads the journal at `path` if it exists (for --resume); a missing
  /// file yields an empty journal.  Throws fgpar::Error when the file
  /// exists but has the wrong version, belongs to a different sweep name
  /// or grid fingerprint, or is corrupt (bad header — including any token
  /// after the fingerprint — malformed point line, bad hex, duplicate or
  /// out-of-order garbage).
  static SweepCheckpoint LoadOrCreate(std::string path, std::string name,
                                      std::uint64_t fingerprint);

  bool HasPoint(std::size_t index) const;
  /// The journaled payload for `index`, or nullptr if not completed.
  const std::string* PointPayload(std::size_t index) const;
  std::size_t CompletedCount() const { return points_.size(); }

  /// Journals a completed point (its opaque encoded result) and durably
  /// rewrites the file via temp + atomic rename.  Re-recording an index
  /// with a different payload throws: a deterministic sweep can never
  /// legitimately produce two results for one point.
  void RecordPoint(std::size_t index, const std::string& payload);

  const std::string& path() const { return path_; }
  const std::string& name() const { return name_; }
  std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  void WriteFileAtomic() const;

  std::string path_;
  std::string name_;
  std::uint64_t fingerprint_ = 0;
  std::map<std::size_t, std::string> points_;  // index -> opaque payload
};

}  // namespace fgpar::harness

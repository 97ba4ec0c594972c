// Serial reference model of one account's filesystem.
//
// The benchmark replays every plan through this model, then compares the
// whole observable tree of the program (names, kinds, sizes and file
// samples) against it.  Semantics follow the FileSystem interface
// (src/fs/filesystem.h) and the trace replayer (workload/trace.h):
//   * WRITE creates or overwrites a file whose sample is "trace:<path>";
//   * MOVE and RENAME carry a file or a whole subtree, contents intact;
//   * COPY duplicates a file or subtree, so copies keep the source sample;
//   * RMDIR removes a directory and everything beneath it;
//   * a destination that already exists, a missing parent, or a kind
//     mismatch is an error, and the model is left unchanged.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "workload/trace.h"

namespace h2perf {

struct ModelNode {
  bool is_dir = false;
  std::string data;         // file sample bytes
  std::uint64_t size = 0;   // file logical size

  bool operator==(const ModelNode&) const = default;
};

class ReferenceFs {
 public:
  /// Applies one trace operation; false (and no change) when the
  /// operation is invalid in the current state.
  bool Apply(const h2::TraceOp& op);

  /// Every path except the root, in sorted order.
  const std::map<std::string, ModelNode>& nodes() const { return nodes_; }
  /// Sum of live file logical sizes.
  std::uint64_t live_bytes() const;

 private:
  bool IsDir(const std::string& path) const;
  bool IsFile(const std::string& path) const;
  bool Exists(const std::string& path) const;
  bool CanCreate(const std::string& path) const;
  /// `path` and every path beneath it, in sorted order.
  std::map<std::string, ModelNode> Subtree(const std::string& path) const;
  void EraseSubtree(const std::string& path);
  bool Transfer(const std::string& from, const std::string& to, bool keep);

  std::map<std::string, ModelNode> nodes_;
};

}  // namespace h2perf

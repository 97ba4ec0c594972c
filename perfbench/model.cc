#include "model.h"

#include "fs/path.h"

namespace h2perf {

using h2::TraceOpKind;

bool ReferenceFs::IsDir(const std::string& path) const {
  if (path == "/") return true;
  const auto it = nodes_.find(path);
  return it != nodes_.end() && it->second.is_dir;
}

bool ReferenceFs::IsFile(const std::string& path) const {
  const auto it = nodes_.find(path);
  return it != nodes_.end() && !it->second.is_dir;
}

bool ReferenceFs::Exists(const std::string& path) const {
  return path == "/" || nodes_.count(path) != 0;
}

bool ReferenceFs::CanCreate(const std::string& path) const {
  return path != "/" && !Exists(path) && IsDir(h2::ParentPath(path));
}

std::map<std::string, ModelNode> ReferenceFs::Subtree(
    const std::string& path) const {
  std::map<std::string, ModelNode> out;
  if (const auto it = nodes_.find(path); it != nodes_.end()) {
    out.insert(*it);
  }
  // Descendants sort between "<path>/" and "<path>0" ('0' follows '/').
  for (auto it = nodes_.lower_bound(path + "/");
       it != nodes_.end() && it->first < path + "0"; ++it) {
    out.insert(*it);
  }
  return out;
}

void ReferenceFs::EraseSubtree(const std::string& path) {
  nodes_.erase(path);
  nodes_.erase(nodes_.lower_bound(path + "/"), nodes_.lower_bound(path + "0"));
}

bool ReferenceFs::Transfer(const std::string& from, const std::string& to,
                           bool keep) {
  if (from == "/" || !Exists(from) || !CanCreate(to) ||
      h2::IsWithin(to, from)) {
    return false;
  }
  const std::map<std::string, ModelNode> moved = Subtree(from);
  if (!keep) EraseSubtree(from);
  for (const auto& [path, node] : moved) {
    nodes_.emplace(to + path.substr(from.size()), node);
  }
  return true;
}

bool ReferenceFs::Apply(const h2::TraceOp& op) {
  switch (op.kind) {
    case TraceOpKind::kStat:
      return Exists(op.path);
    case TraceOpKind::kRead:
      return IsFile(op.path);
    case TraceOpKind::kList:
    case TraceOpKind::kListAt:
      return IsDir(op.path);
    case TraceOpKind::kWrite:
      if (!IsFile(op.path) && !CanCreate(op.path)) return false;
      nodes_[op.path] = ModelNode{false, "trace:" + op.path, op.size};
      return true;
    case TraceOpKind::kMkdir:
      if (!CanCreate(op.path)) return false;
      nodes_[op.path] = ModelNode{true, "", 0};
      return true;
    case TraceOpKind::kRmdir:
      if (op.path == "/" || !IsDir(op.path)) return false;
      EraseSubtree(op.path);
      return true;
    case TraceOpKind::kRemove:
      if (!IsFile(op.path)) return false;
      nodes_.erase(op.path);
      return true;
    case TraceOpKind::kMove:
      return Transfer(op.path, op.path2, /*keep=*/false);
    case TraceOpKind::kRename:
      return Transfer(op.path,
                      h2::JoinPath(h2::ParentPath(op.path), op.path2),
                      /*keep=*/false);
    case TraceOpKind::kCopy:
    case TraceOpKind::kSnapshotClone:
      return Transfer(op.path, op.path2, /*keep=*/true);
  }
  return false;
}

std::uint64_t ReferenceFs::live_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [path, node] : nodes_) {
    if (!node.is_dir) total += node.size;
  }
  return total;
}

}  // namespace h2perf

#include "graph/graph_io.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace gcgt {
namespace {

long ProcessId() {
#if defined(__unix__) || defined(__APPLE__)
  return static_cast<long>(::getpid());
#else
  return 0;
#endif
}

constexpr uint32_t kBinMagic = 0x47435231;  // "GCR1"

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// Flushes and closes a file opened for writing. Buffered writes fail only
/// here (e.g. on a full disk), so a writer is OK only if this is.
Status FinishWrite(FilePtr f, const std::string& path) {
  const bool written = std::ferror(f.get()) == 0 && std::fflush(f.get()) == 0;
  const bool closed = std::fclose(f.release()) == 0;
  if (!written || !closed) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace

Status WriteFileAtomic(const std::string& path,
                       const std::function<Status(std::FILE*)>& write_fn) {
  char unique[64];
  std::snprintf(unique, sizeof(unique), ".tmp.%ld.%zu", ProcessId(),
                std::hash<std::thread::id>{}(std::this_thread::get_id()));
  const std::string tmp = path + unique;
  std::error_code ec;

  Status s = Status::OK();
  {
    FilePtr f(std::fopen(tmp.c_str(), "wb"));
    if (!f) return Status::IOError("cannot open for write: " + tmp);
    s = write_fn(f.get());
    if (s.ok()) s = FinishWrite(std::move(f), tmp);
  }
  if (!s.ok()) {
    std::filesystem::remove(tmp, ec);
    return s;
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return Status::IOError("rename failed: " + path);
  }
  return Status::OK();
}

Status WriteEdgeListFile(const Graph& g, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (!f) return Status::IOError("cannot open for write: " + path);
  std::fprintf(f.get(), "# nodes=%u edges=%" PRIu64 "\n", g.num_nodes(),
               g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.Neighbors(u)) std::fprintf(f.get(), "%u %u\n", u, v);
  }
  return FinishWrite(std::move(f), path);
}

Result<Graph> ReadEdgeListFile(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "r"));
  if (!f) return Status::IOError("cannot open for read: " + path);
  EdgeList edges;
  NodeId num_nodes = 0;
  bool have_header = false;
  char line[256];
  while (std::fgets(line, sizeof(line), f.get()) != nullptr) {
    if (line[0] == '#' || line[0] == '%') {
      unsigned n = 0;
      if (std::sscanf(line, "# nodes=%u", &n) == 1) {
        num_nodes = n;
        have_header = true;
      }
      continue;
    }
    unsigned u, v;
    if (std::sscanf(line, "%u %u", &u, &v) == 2) {
      edges.emplace_back(u, v);
      if (!have_header) {
        num_nodes = std::max<NodeId>(num_nodes, std::max(u, v) + 1);
      }
    }
  }
  for (const auto& [u, v] : edges) {
    if (u >= num_nodes || v >= num_nodes) {
      return Status::Corruption("edge endpoint exceeds declared node count");
    }
  }
  return Graph::FromEdges(num_nodes, edges);
}

Status WriteBinaryCsr(const Graph& g, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::IOError("cannot open for write: " + path);
  uint32_t magic = kBinMagic;
  uint32_t num_nodes = g.num_nodes();
  uint64_t num_edges = g.num_edges();
  if (std::fwrite(&magic, sizeof(magic), 1, f.get()) != 1 ||
      std::fwrite(&num_nodes, sizeof(num_nodes), 1, f.get()) != 1 ||
      std::fwrite(&num_edges, sizeof(num_edges), 1, f.get()) != 1) {
    return Status::IOError("short write: " + path);
  }
  // offsets() always has num_nodes + 1 entries, even for an empty graph —
  // the reader unconditionally expects them.
  if (std::fwrite(g.offsets().data(), sizeof(EdgeId), num_nodes + 1, f.get()) !=
      num_nodes + 1) {
    return Status::IOError("short write (offsets): " + path);
  }
  if (num_edges > 0 &&
      std::fwrite(g.neighbors().data(), sizeof(NodeId), num_edges, f.get()) !=
          num_edges) {
    return Status::IOError("short write (neighbors): " + path);
  }
  return FinishWrite(std::move(f), path);
}

Result<Graph> ReadBinaryCsr(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IOError("cannot open for read: " + path);
  uint32_t magic = 0, num_nodes = 0;
  uint64_t num_edges = 0;
  if (std::fread(&magic, sizeof(magic), 1, f.get()) != 1 || magic != kBinMagic) {
    return Status::Corruption("bad magic in " + path);
  }
  if (std::fread(&num_nodes, sizeof(num_nodes), 1, f.get()) != 1 ||
      std::fread(&num_edges, sizeof(num_edges), 1, f.get()) != 1) {
    return Status::Corruption("truncated header in " + path);
  }
  // The header must describe exactly the file's bytes before anything is
  // sized from it: a corrupt count would otherwise throw from the allocator.
  std::error_code ec;
  const uint64_t file_size = std::filesystem::file_size(path, ec);
  const uint64_t fixed_bytes = sizeof(magic) + sizeof(num_nodes) +
                               sizeof(num_edges) +
                               (uint64_t{num_nodes} + 1) * sizeof(EdgeId);
  if (ec || file_size < fixed_bytes ||
      (file_size - fixed_bytes) % sizeof(NodeId) != 0 ||
      (file_size - fixed_bytes) / sizeof(NodeId) != num_edges) {
    return Status::Corruption("header does not match file size in " + path);
  }
  std::vector<EdgeId> offsets(num_nodes + 1);
  std::vector<NodeId> neighbors(num_edges);
  if (std::fread(offsets.data(), sizeof(EdgeId), num_nodes + 1, f.get()) !=
      num_nodes + 1) {
    return Status::Corruption("truncated offsets in " + path);
  }
  if (num_edges > 0 &&
      std::fread(neighbors.data(), sizeof(NodeId), num_edges, f.get()) !=
          num_edges) {
    return Status::Corruption("truncated neighbors in " + path);
  }
  if (offsets.front() != 0 || offsets.back() != num_edges) {
    return Status::Corruption("inconsistent offsets in " + path);
  }
  // Rebuild through the edge list to re-validate sortedness/dedup invariants.
  EdgeList edges;
  edges.reserve(num_edges);
  for (NodeId u = 0; u < num_nodes; ++u) {
    if (offsets[u] > offsets[u + 1]) {
      return Status::Corruption("non-monotone offsets in " + path);
    }
    for (EdgeId i = offsets[u]; i < offsets[u + 1]; ++i) {
      if (neighbors[i] >= num_nodes) {
        return Status::Corruption("neighbor id out of range in " + path);
      }
      edges.emplace_back(u, neighbors[i]);
    }
  }
  return Graph::FromEdges(num_nodes, edges);
}

}  // namespace gcgt

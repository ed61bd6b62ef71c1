// Text edge-list and binary CSR (de)serialization.
#ifndef GCGT_GRAPH_GRAPH_IO_H_
#define GCGT_GRAPH_GRAPH_IO_H_

#include <cstdio>
#include <functional>
#include <string>

#include "graph/graph.h"
#include "util/status.h"

namespace gcgt {

/// Writes `path` atomically: `write_fn` streams into a process+thread-unique
/// temp file in the same directory, which is renamed over `path` only when
/// write_fn, the flush and the close all succeed. On any failure the temp
/// file is removed and `path` is left untouched — readers never observe a
/// partial file. Concurrent writers racing on one path are safe (last
/// rename wins).
Status WriteFileAtomic(const std::string& path,
                       const std::function<Status(std::FILE*)>& write_fn);

/// Writes "u v" lines; first line is a "# nodes=N edges=M" header.
Status WriteEdgeListFile(const Graph& g, const std::string& path);

/// Reads the format produced by WriteEdgeListFile. Lines starting with '#'
/// or '%' are treated as comments; the node count is max id + 1 unless the
/// header provides it.
Result<Graph> ReadEdgeListFile(const std::string& path);

/// Compact binary CSR dump (little-endian, versioned header).
Status WriteBinaryCsr(const Graph& g, const std::string& path);
Result<Graph> ReadBinaryCsr(const std::string& path);

}  // namespace gcgt

#endif  // GCGT_GRAPH_GRAPH_IO_H_

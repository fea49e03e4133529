// Plain-text serialization for graphs and instances.
//
// A deliberately simple line-oriented format (DIMACS-flavored) so that
// instances can be generated, stored, diffed, and fed to the CLI tool:
//
//   bipartite <left> <right> <edges>
//   <l> <r>
//   ...
//
// '#' starts a comment that runs to the end of the line; blank lines are
// ignored. The parser returns std::nullopt on malformed input (no
// exceptions), with a one-line error description through the optional
// *error out-param.

#ifndef PEBBLEJOIN_IO_GRAPH_IO_H_
#define PEBBLEJOIN_IO_GRAPH_IO_H_

#include <optional>
#include <string>
#include <string_view>

#include "graph/bipartite_graph.h"
#include "graph/graph.h"

namespace pebblejoin {

// Serializes to the text format above.
std::string SerializeBipartiteGraph(const BipartiteGraph& g);

// Writes a general graph as "graph <vertices> <edges>" and then one "u v"
// pair per line. Nothing parses it back: it pins generator output in
// tests.
std::string SerializeGraph(const Graph& g);

// Parses the text format. On failure returns nullopt and, when `error` is
// non-null, stores a one-line description.
std::optional<BipartiteGraph> ParseBipartiteGraph(std::string_view text,
                                                  std::string* error);

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_IO_GRAPH_IO_H_

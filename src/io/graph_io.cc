#include "io/graph_io.h"

#include <limits>
#include <sstream>
#include <vector>

#include "graph/csr_graph.h"
#include "util/parse_int.h"

namespace pebblejoin {

namespace {

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

// A token together with the 1-based input line it came from, so parse
// errors can point at the offending line.
struct Token {
  std::string text;
  int line = 0;
};

// Splits `text` into whitespace-separated tokens, dropping '#' comments.
std::vector<Token> Tokenize(const std::string& text) {
  std::vector<Token> tokens;
  std::istringstream lines(text);
  std::string line;
  int line_number = 0;
  while (std::getline(lines, line)) {
    ++line_number;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream words(line);
    std::string word;
    while (words >> word) tokens.push_back({word, line_number});
  }
  return tokens;
}

std::string AtLine(const Token& token) {
  std::string out = "line ";
  out += std::to_string(token.line);
  out += ": ";
  return out;
}

// Largest vertex-set size the parser will materialize. Headers are
// untrusted input: "bipartite 2000000000 2000000000 0" is well-formed yet
// would allocate gigabytes before the first edge is read.
constexpr int64_t kMaxParsedVertices = int64_t{1} << 27;

}  // namespace

std::string SerializeBipartiteGraph(const BipartiteGraph& g) {
  std::string out = "bipartite ";
  out += std::to_string(g.left_size());
  out += ' ';
  out += std::to_string(g.right_size());
  out += ' ';
  out += std::to_string(g.num_edges());
  out += '\n';
  for (const BipartiteGraph::Edge& e : g.edges()) {
    out += std::to_string(e.left) + " " + std::to_string(e.right) + "\n";
  }
  return out;
}

std::string SerializeGraph(const Graph& g) {
  std::string out = "graph ";
  out += std::to_string(g.num_vertices());
  out += ' ';
  out += std::to_string(g.num_edges());
  out += '\n';
  for (int e = 0; e < g.num_edges(); ++e) {
    out += std::to_string(g.edge(e).u) + " " + std::to_string(g.edge(e).v) +
           "\n";
  }
  return out;
}

// On failure reports the first error in input order, so an out-of-range
// pair loses to a repeated pair before it.
std::optional<BipartiteGraph> ParseBipartiteGraph(const std::string& text,
                                                  std::string* error) {
  const std::vector<Token> tokens = Tokenize(text);
  constexpr size_t header = 4;  // keyword, left, right, edge count
  if (tokens.size() < header || tokens[0].text != "bipartite") {
    SetError(error, "expected header: bipartite <left> <right> <edges>");
    return std::nullopt;
  }
  int counts[3] = {};  // the side sizes, then the edge count
  for (size_t i = 1; i < header; ++i) {
    const auto count =
        ParseInt(tokens[i].text, 0, std::numeric_limits<int>::max());
    if (!count) {
      SetError(error, AtLine(tokens[0]) + "malformed header numbers");
      return std::nullopt;
    }
    counts[i - 1] = static_cast<int>(*count);
  }
  const int left = counts[0];
  const int right = counts[1];
  const int edges = counts[2];
  if (int64_t{left} + right > kMaxParsedVertices) {
    SetError(error, AtLine(tokens[0]) + "header vertex counts too large");
    return std::nullopt;
  }
  // int64 arithmetic: with edges near INT_MAX the expected token count
  // overflows 32 bits, and a wrapped comparison would accept a short file.
  if (static_cast<int64_t>(tokens.size()) !=
      static_cast<int64_t>(header) + 2 * int64_t{edges}) {
    SetError(error, std::string("edge list length does not match header (") +
                        std::to_string((tokens.size() - header) / 2) +
                        " edge tokens for " + std::to_string(edges) +
                        " declared edges)");
    return std::nullopt;
  }
  const auto pair_at = [](int64_t e) {
    return header + 2 * static_cast<size_t>(e);
  };
  // The pairs up to the first bad one, as a flat graph over left + right
  // vertices ((l, r) becomes {l, left + r}) for the repeated-edge scan.
  Graph flat(left + right);
  int out_of_range = -1;
  for (int e = 0; e < edges && out_of_range == -1; ++e) {
    const auto l = ParseInt(tokens[pair_at(e)].text, 0, left - 1);
    const auto r = ParseInt(tokens[pair_at(e) + 1].text, 0, right - 1);
    if (!l || !r) {
      out_of_range = e;
    } else {
      flat.AddEdge(static_cast<int>(*l), left + static_cast<int>(*r));
    }
  }
  const int64_t repeat = CsrGraph(flat).FirstRepeatedEdge();
  if (repeat != -1) {
    SetError(error, AtLine(tokens[pair_at(repeat)]) +
                        "duplicate edge at position " +
                        std::to_string(repeat));
    return std::nullopt;
  }
  if (out_of_range != -1) {
    SetError(error, AtLine(tokens[pair_at(out_of_range)]) + "edge " +
                        std::to_string(out_of_range) + " out of range");
    return std::nullopt;
  }
  BipartiteGraph g(left, right);
  for (int e = 0; e < flat.num_edges(); ++e) {
    g.AddEdge(flat.edge(e).u, flat.edge(e).v - left);
  }
  return g;
}

}  // namespace pebblejoin

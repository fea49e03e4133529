#include "io/graph_io.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <vector>

#include "graph/csr_graph.h"

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

std::optional<int> ParseInt(const std::string& token) {
  if (token.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(token.c_str(), &end, 10);
  if (errno != 0 || end != token.c_str() + token.size()) return std::nullopt;
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return std::nullopt;
  }
  return static_cast<int>(value);
}

// Largest vertex-set size the parsers will materialize. Headers are
// untrusted input: "bipartite 2000000000 2000000000 0" is well-formed yet
// would allocate gigabytes before the first edge is read.
constexpr int64_t kMaxParsedVertices = int64_t{1} << 27;

// Both formats are a header (keyword, one vertex count per side, edge
// count) and then the endpoint pairs; this is what sets them apart.
struct EdgeListFormat {
  const char* keyword;
  int sides;
  const char* usage;      // diagnostic for a missing or foreign header
  const char* too_large;  // diagnostic for the vertex cap
};

constexpr EdgeListFormat kBipartiteFormat = {
    "bipartite", 2, "expected header: bipartite <left> <right> <edges>",
    "header vertex counts too large"};
constexpr EdgeListFormat kGraphFormat = {
    "graph", 1, "expected header: graph <vertices> <edges>",
    "header vertex count too large"};

// Parses either format into a flat Graph over the sum of the side sizes,
// which land in `sides`: a bipartite pair (l, r) becomes {l, left + r}. On
// failure reports the first error in input order, so an out-of-range pair
// loses to a repeated pair before it.
std::optional<Graph> ParseEdgeList(const std::string& text,
                                   const EdgeListFormat& format, int* sides,
                                   std::string* error) {
  const std::vector<Token> tokens = Tokenize(text);
  const size_t header = static_cast<size_t>(format.sides) + 2;
  if (tokens.size() < header || tokens[0].text != format.keyword) {
    SetError(error, format.usage);
    return std::nullopt;
  }
  int counts[3] = {};  // the side sizes, then the edge count
  for (size_t i = 1; i < header; ++i) {
    const auto count = ParseInt(tokens[i].text);
    if (!count || *count < 0) {
      SetError(error, AtLine(tokens[0]) + "malformed header numbers");
      return std::nullopt;
    }
    counts[i - 1] = *count;
  }
  sides[0] = counts[0];
  sides[1] = counts[format.sides - 1];
  const int edges = counts[format.sides];
  const int offset = format.sides == 2 ? sides[0] : 0;
  if (int64_t{offset} + sides[1] > kMaxParsedVertices) {
    SetError(error, AtLine(tokens[0]) + format.too_large);
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
  const auto pair_at = [header](int64_t e) {
    return header + 2 * static_cast<size_t>(e);
  };
  Graph g(offset + sides[1]);
  int out_of_range = -1;
  for (int e = 0; e < edges && out_of_range == -1; ++e) {
    const auto a = ParseInt(tokens[pair_at(e)].text);
    const auto b = ParseInt(tokens[pair_at(e) + 1].text);
    if (!a || !b || *a < 0 || *a >= sides[0] || *b < 0 || *b >= sides[1] ||
        *a == offset + *b) {
      out_of_range = e;
    } else {
      g.AddEdge(*a, offset + *b);
    }
  }
  const int64_t repeat = CsrGraph(g).FirstRepeatedEdge();
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
  return g;
}

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

std::optional<BipartiteGraph> ParseBipartiteGraph(const std::string& text,
                                                  std::string* error) {
  int sides[2] = {};
  const std::optional<Graph> flat =
      ParseEdgeList(text, kBipartiteFormat, sides, error);
  if (!flat.has_value()) return std::nullopt;
  BipartiteGraph g(sides[0], sides[1]);
  for (int e = 0; e < flat->num_edges(); ++e) {
    g.AddEdge(flat->edge(e).u, flat->edge(e).v - sides[0]);
  }
  return g;
}

std::optional<Graph> ParseGraph(const std::string& text,
                                std::string* error) {
  int sides[2] = {};
  return ParseEdgeList(text, kGraphFormat, sides, error);
}

std::optional<BipartiteGraph> ReadBipartiteGraphFile(const std::string& path,
                                                     std::string* error) {
  const std::optional<std::string> contents = ReadTextFile(path);
  if (!contents.has_value()) {
    SetError(error, "cannot read file: " + path);
    return std::nullopt;
  }
  return ParseBipartiteGraph(*contents, error);
}

bool WriteTextFile(const std::string& path, const std::string& contents) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const size_t written =
      std::fwrite(contents.data(), 1, contents.size(), file);
  const bool ok = (written == contents.size()) && (std::fclose(file) == 0);
  return ok;
}

std::optional<std::string> ReadTextFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) return std::nullopt;
  std::string contents;
  char buffer[4096];
  size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    contents.append(buffer, got);
  }
  std::fclose(file);
  return contents;
}

}  // namespace pebblejoin

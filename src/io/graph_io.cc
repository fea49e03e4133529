#include "io/graph_io.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "util/parse_int.h"

namespace pebblejoin {

namespace {

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

// Walks the text format token by token in one pass: whitespace separates
// tokens, '\n' ends a line, and '#' starts a comment that runs to the end
// of its line (it also ends a token glued to it). A NUL byte is an
// ordinary token byte.
class Tokenizer {
 public:
  explicit Tokenizer(std::string_view text) : text_(text) {}

  // The next token, or false at the end of the text.
  bool Next(std::string_view* token) {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '#') {
        pos_ = std::min(text_.find('\n', pos_), text_.size());
      } else if (IsAsciiSpace(c)) {
        if (c == '\n') ++line_;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == text_.size()) return false;
    const size_t begin = pos_;
    while (pos_ < text_.size() && !IsAsciiSpace(text_[pos_]) &&
           text_[pos_] != '#') {
      ++pos_;
    }
    *token = text_.substr(begin, pos_ - begin);
    return true;
  }

  // The 1-based line of the token Next returned last.
  int64_t line() const { return line_; }

 private:
  std::string_view text_;
  size_t pos_ = 0;
  int64_t line_ = 1;
};

// "line N: " for the token at `index` (0-based, header included). Only
// the error path needs a line, so it re-scans instead of the parse
// keeping one per token.
std::string AtLine(std::string_view text, int64_t index) {
  Tokenizer tokens(text);
  std::string_view token;
  for (int64_t i = 0; i <= index && tokens.Next(&token); ++i) {
  }
  std::string out = "line ";
  out += std::to_string(tokens.line());
  out += ": ";
  return out;
}

// Id of the first edge that repeats an earlier pair, or -1: the check of
// CsrGraph::FirstRepeatedEdge on the pairs as parsed, without a flattened
// copy and its full adjacency. Edge ids are bucketed by left endpoint in
// ascending order, so within a bucket a right endpoint seen before marks
// the later edge of a repeated pair; the minimum over the buckets is the
// first repeat.
int64_t FirstRepeatedPair(const BipartiteGraph& g) {
  const std::vector<BipartiteGraph::Edge>& edges = g.edges();
  if (edges.size() < 2) return -1;
  std::vector<uint32_t> begin(static_cast<size_t>(g.left_size()) + 1, 0);
  for (const BipartiteGraph::Edge& e : edges) ++begin[e.left + 1];
  for (int l = 0; l < g.left_size(); ++l) begin[l + 1] += begin[l];
  std::vector<uint32_t> by_left(edges.size());
  std::vector<uint32_t> cursor(begin.begin(), begin.end() - 1);
  for (uint32_t id = 0; id < edges.size(); ++id) {
    by_left[cursor[edges[id].left]++] = id;
  }
  // seen_in[r]: the last bucket that reached right vertex r.
  std::vector<int> seen_in(g.right_size(), -1);
  int64_t first = -1;
  for (int l = 0; l < g.left_size(); ++l) {
    for (uint32_t i = begin[l]; i < begin[l + 1]; ++i) {
      int& seen = seen_in[edges[by_left[i]].right];
      if (seen != l) {
        seen = l;
      } else if (first == -1 || by_left[i] < first) {
        first = by_left[i];
      }
    }
  }
  return first;
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
// pair loses to a repeated pair before it. A length mismatch wins over
// both, so every token is counted before an edge error is reported.
std::optional<BipartiteGraph> ParseBipartiteGraph(std::string_view text,
                                                  std::string* error) {
  constexpr int64_t header = 4;  // keyword, left, right, edge count
  Tokenizer tokens(text);
  std::string_view header_tokens[header];
  for (std::string_view& token : header_tokens) {
    if (!tokens.Next(&token) || header_tokens[0] != "bipartite") {
      SetError(error, "expected header: bipartite <left> <right> <edges>");
      return std::nullopt;
    }
  }
  int counts[3] = {};  // the side sizes, then the edge count
  for (int64_t i = 1; i < header; ++i) {
    const auto count =
        ParseInt(header_tokens[i], 0, std::numeric_limits<int>::max());
    if (!count) {
      SetError(error, AtLine(text, 0) + "malformed header numbers");
      return std::nullopt;
    }
    counts[i - 1] = static_cast<int>(*count);
  }
  const int left = counts[0];
  const int right = counts[1];
  const int edges = counts[2];
  if (int64_t{left} + right > kMaxParsedVertices) {
    SetError(error, AtLine(text, 0) + "header vertex counts too large");
    return std::nullopt;
  }
  // The pairs up to the first bad one. Tokens past the declared pairs
  // only count towards the length check.
  BipartiteGraph g(left, right);
  int64_t edge_tokens = 0;
  int64_t out_of_range = -1;
  std::string_view l_token;
  std::string_view token;
  while (tokens.Next(&token)) {
    const int64_t e = edge_tokens / 2;
    if (edge_tokens++ % 2 == 0) {
      l_token = token;
    } else if (out_of_range == -1 && e < edges) {
      const auto l = ParseInt(l_token, 0, left - 1);
      const auto r = ParseInt(token, 0, right - 1);
      if (!l || !r) {
        out_of_range = e;
      } else {
        g.AddEdge(static_cast<int>(*l), static_cast<int>(*r));
      }
    }
  }
  // int64 arithmetic: with edges near INT_MAX the expected token count
  // overflows 32 bits, and a wrapped comparison would accept a short file.
  if (edge_tokens != 2 * int64_t{edges}) {
    SetError(error, std::string("edge list length does not match header (") +
                        std::to_string(edge_tokens / 2) + " edge tokens for " +
                        std::to_string(edges) + " declared edges)");
    return std::nullopt;
  }
  const int64_t repeat = FirstRepeatedPair(g);
  if (repeat != -1) {
    SetError(error, AtLine(text, header + 2 * repeat) +
                        "duplicate edge at position " +
                        std::to_string(repeat));
    return std::nullopt;
  }
  if (out_of_range != -1) {
    SetError(error, AtLine(text, header + 2 * out_of_range) + "edge " +
                        std::to_string(out_of_range) + " out of range");
    return std::nullopt;
  }
  return g;
}

}  // namespace pebblejoin

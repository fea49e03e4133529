#include "io/graph_io.h"

#include <string>
#include <vector>

#include "io/dot_export.h"

#include "graph/generators.h"
#include "gtest/gtest.h"

#include "graph_test_util.h"

namespace pebblejoin {
namespace {

TEST(BipartiteIoTest, RoundTripsRandomGraphs) {
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    const BipartiteGraph g = RandomBipartite(7, 9, 0.3, seed);
    std::string error;
    const auto parsed = ParseBipartiteGraph(SerializeBipartiteGraph(g),
                                            &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_TRUE(parsed->SameEdgeSet(g));
    EXPECT_EQ(parsed->left_size(), g.left_size());
    EXPECT_EQ(parsed->right_size(), g.right_size());
  }
}

TEST(BipartiteIoTest, RoundTripsEmptyGraph) {
  const BipartiteGraph g(3, 0);
  std::string error;
  const auto parsed = ParseBipartiteGraph(SerializeBipartiteGraph(g),
                                          &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->left_size(), 3);
  EXPECT_EQ(parsed->num_edges(), 0);
}

TEST(BipartiteIoTest, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "# a comment\n"
      "bipartite 2 2 1  # trailing comment\n"
      "\n"
      "0 1\n";
  std::string error;
  const auto parsed = ParseBipartiteGraph(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_TRUE(HasEdge(*parsed, 0, 1));
}

// Each case pins the exact diagnostic bytes: the CLI, batch and serve
// surface them verbatim.
struct ErrorCase {
  std::string text;  // a std::string, so a case can carry a NUL byte
  const char* error;
};

using namespace std::string_literals;

void ExpectBipartiteErrors(const std::vector<ErrorCase>& cases) {
  for (const ErrorCase& c : cases) {
    std::string error;
    EXPECT_FALSE(ParseBipartiteGraph(c.text, &error).has_value()) << c.text;
    EXPECT_EQ(error, c.error) << c.text;
  }
}

TEST(BipartiteIoTest, RejectsMalformedInput) {
  ExpectBipartiteErrors({
      {"", "expected header: bipartite <left> <right> <edges>"},
      {"graph 2 1\n0 1\n",
       "expected header: bipartite <left> <right> <edges>"},
      {"bipartite 2 2 2\n0 1\n",
       "edge list length does not match header (1 edge tokens for 2 "
       "declared edges)"},
      {"bipartite 2 2 1\n0 5\n", "line 2: edge 0 out of range"},
      {"bipartite 2 2 1\n0 x\n", "line 2: edge 0 out of range"},
      {"bipartite 2 2 2\n0 1\n0 1\n",
       "line 3: duplicate edge at position 1"},
      {"bipartite -1 2 0\n", "line 1: malformed header numbers"},
  });
}

TEST(BipartiteIoTest, MalformedInputCorpus) {
  // Every entry must be rejected with its diagnostic, never an abort:
  // this input arrives from untrusted files and stdin.
  ExpectBipartiteErrors({
      // empty
      {"", "expected header: bipartite <left> <right> <edges>"},
      // header cut off
      {"bipartite", "expected header: bipartite <left> <right> <edges>"},
      // missing edge count
      {"bipartite 2 2", "expected header: bipartite <left> <right> <edges>"},
      // non-numeric count
      {"bipartite 2 2 x", "line 1: malformed header numbers"},
      // dangling edge token
      {"bipartite 2 2 1\n0\n",
       "edge list length does not match header (0 edge tokens for 1 "
       "declared edges)"},
      // trailing junk token
      {"bipartite 2 2 1\n0 1 7\n",
       "edge list length does not match header (1 edge tokens for 1 "
       "declared edges)"},
      // count overflows int
      {"bipartite 2 2 99999999999999\n0 1\n",
       "line 1: malformed header numbers"},
      // token math would wrap int32
      {"bipartite 2 2 2147483647\n0 1\n",
       "edge list length does not match header (1 edge tokens for "
       "2147483647 declared edges)"},
      // absurd allocation request
      {"bipartite 2000000000 2000000000 0\n",
       "line 1: header vertex counts too large"},
      // negative endpoint
      {"bipartite 2 2 1\n-1 0\n", "line 2: edge 0 out of range"},
      // float-ish token
      {"bipartite 2 2 1\n1e1 0\n", "line 2: edge 0 out of range"},
      // hex not accepted
      {"bipartite 2 2 1\n0x1 0\n", "line 2: edge 0 out of range"},
      // duplicate edge
      {"bipartite 2 2 2\n0 0\n0 0\n",
       "line 3: duplicate edge at position 1"},
      // wrong header keyword
      {"graph 2 1\n0 1\n",
       "expected header: bipartite <left> <right> <edges>"},
      // a NUL inside a token ends neither the token nor the number
      // (JSONL's \u0000 decodes to one)
      {"bipartite 1 1 1\n0 0\0zz\n"s,
       "line 2: edge 0 out of range"},
      {"bipartite 1\0x 1 0\n"s,
       "line 1: malformed header numbers"},
  });
}

TEST(BipartiteIoTest, VertexCapRejectsOneOverTheLimit) {
  // 2^27 + 1 vertices in total, split either way, is one too many.
  ExpectBipartiteErrors({
      {"bipartite 134217729 0 0\n", "line 1: header vertex counts too large"},
      {"bipartite 67108864 67108865 0\n",
       "line 1: header vertex counts too large"},
      {"# leading comment\nbipartite 0 134217729 0\n",
       "line 2: header vertex counts too large"},
      {"\n# c\nbipartite 0 134217729 0\n",
       "line 3: header vertex counts too large"},
  });
}

TEST(BipartiteIoTest, FirstErrorInInputOrderWins) {
  ExpectBipartiteErrors({
      // A duplicate at position 2, then an out-of-range edge at 3.
      {"bipartite 3 3 4\n0 0\n1 1\n0 0\n0 9\n",
       "line 4: duplicate edge at position 2"},
      // An out-of-range edge at position 1, then a duplicate at 2.
      {"bipartite 3 3 3\n0 0\n0 9\n0 0\n",
       "line 3: edge 1 out of range"},
      // Only the first repeat of a pair is reported, and the earliest
      // repeat across all pairs wins.
      {"bipartite 3 3 5\n0 0\n2 2\n1 1\n2 2\n0 0\n",
       "line 5: duplicate edge at position 3"},
  });
}

TEST(BipartiteIoTest, ErrorsNameTheOffendingLine) {
  ExpectBipartiteErrors({
      // The duplicate is on input line 4 (header, edge, comment, edge).
      {"bipartite 2 2 2\n0 0\n# comment\n0 0\n",
       "line 4: duplicate edge at position 1"},
      {"bipartite 2 2 1\n\n\n0 9\n", "line 4: edge 0 out of range"},
      // Comment and blank lines before the header count too, and an
      // error names the line of the pair's first token.
      {"\n# c\nbipartite 2 2 2 # h\n0 1\n\n# c\n0\n1\n",
       "line 7: duplicate edge at position 1"},
      {"\n\n# c\nbipartite x 2 0\n", "line 4: malformed header numbers"},
      // A comment and a blank line inside the edge list, and a comment
      // glued to the token before it.
      {"bipartite 3 3 4\n0 1\n1 2\n# c\n\n0 1\n2 0\n",
       "line 6: duplicate edge at position 2"},
      {"bipartite 2 2 2\n0 1#c\n0 1\n",
       "line 3: duplicate edge at position 1"},
  });
}

TEST(BipartiteIoTest, LengthMismatchReportsBothCounts) {
  ExpectBipartiteErrors({
      {"bipartite 3 3 4\n0 1\n1 2\n",
       "edge list length does not match header (2 edge tokens for 4 "
       "declared edges)"},
  });
}

TEST(DotExportTest, ContainsAllVerticesAndEdges) {
  const BipartiteGraph g = WorstCaseFamily(3);
  const std::string dot = ExportDot(g);
  EXPECT_NE(dot.find("graph join_graph {"), std::string::npos);
  // Needles are built by appending: GCC 12's -Wrestrict misfires on some
  // inlined rvalue std::string concatenations.
  for (int l = 0; l < g.left_size(); ++l) {
    std::string box = "L";
    box += std::to_string(l);
    box += " [shape=box]";
    EXPECT_NE(dot.find(box), std::string::npos);
  }
  for (const BipartiteGraph::Edge& e : g.edges()) {
    std::string edge = "L";
    edge += std::to_string(e.left);
    edge += " -- R";
    edge += std::to_string(e.right);
    EXPECT_NE(dot.find(edge), std::string::npos);
  }
}

TEST(DotExportTest, OrderAnnotationsAndJumps) {
  const BipartiteGraph g = MatchingGraph(2);  // any order has one jump
  DotOptions options;
  options.edge_order = std::vector<int>{1, 0};
  const std::string dot = ExportDot(g, options);
  EXPECT_NE(dot.find("label=\"1\""), std::string::npos);
  EXPECT_NE(dot.find("label=\"2\""), std::string::npos);
  EXPECT_NE(dot.find("color=red"), std::string::npos);
}

TEST(DotExportDeathTest, RejectsBadOrders) {
  const BipartiteGraph g = MatchingGraph(2);
  DotOptions options;
  options.edge_order = std::vector<int>{0};
  EXPECT_DEATH(ExportDot(g, options), "mismatch");
  options.edge_order = std::vector<int>{0, 0};
  EXPECT_DEATH(ExportDot(g, options), "repeats");
}

}  // namespace
}  // namespace pebblejoin

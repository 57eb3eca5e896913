// CAIDA serial-2 loader tests (topology/caida.h, docs/FORMATS.md §4):
// the sample-file fixture, the grammar's accept/reject vectors with
// line-numbered diagnostics, label-synthesis determinism, the canonical
// writer, and a mutation fuzz battery.
//
// The canonical property differs from the wire codecs': serial-2 is a
// *lossy* surface (comments, source fields and record order are accepted
// but not preserved), so byte-identity round-tripping is the wrong
// check. The right one is the canonicalization fixed point from
// write_caida_text's contract — for any accepted input x,
// c1 = write(load(x)) must itself load, and write(load(c1)) == c1.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "topology/caida.h"
#include "topology/generator.h"
#include "util/rng.h"
#include "wire_fuzz.h"

namespace rovista {
namespace {

using topology::AsGraph;
using topology::CaidaResult;
using topology::NeighborKind;
using topology::load_caida_file;
using topology::load_caida_text;
using topology::write_caida_text;

const char* sample_path() {
  return ROVISTA_TEST_DATA_DIR "/caida_serial2_sample.txt";
}

TEST(CaidaLoad, SampleFileLoads) {
  const CaidaResult r = load_caida_file(sample_path());
  ASSERT_TRUE(r.ok) << r.error;

  // The sample models 3 tier-1s, 8 tier-2s, 12 tier-3s and 60 stubs.
  EXPECT_EQ(r.stats.as_count, 83u);
  EXPECT_EQ(r.graph.size(), 83u);
  EXPECT_EQ(r.stats.comment_lines, 3u);
  EXPECT_GT(r.stats.p2c_edges, 0u);
  EXPECT_GT(r.stats.p2p_edges, 0u);
  EXPECT_EQ(r.stats.p2c_edges + r.stats.p2p_edges + r.stats.comment_lines,
            r.stats.total_lines);

  // Relationship directions: 10|100|-1 makes 10 the provider of 100;
  // 10|20|0 peers the tier-1s.
  EXPECT_EQ(r.graph.relationship(100, 10), NeighborKind::kProvider);
  EXPECT_EQ(r.graph.relationship(10, 100), NeighborKind::kCustomer);
  EXPECT_EQ(r.graph.relationship(10, 20), NeighborKind::kPeer);
  EXPECT_EQ(r.graph.relationship(20, 10), NeighborKind::kPeer);
  EXPECT_FALSE(r.graph.relationship(10, 1000).has_value());

  // Synthesized tiers: transit-free clique members rank 1, provider-less
  // is the test, so every tier-1 has customers but no providers; stubs
  // (customer-less) rank 4.
  for (const topology::Asn t1 : {10u, 20u, 30u}) {
    ASSERT_NE(r.graph.info(t1), nullptr);
    EXPECT_EQ(r.graph.info(t1)->tier, 1);
    EXPECT_TRUE(r.graph.providers(t1).empty());
  }
  ASSERT_NE(r.graph.info(1000), nullptr);
  EXPECT_EQ(r.graph.info(1000)->tier, 4);
  EXPECT_TRUE(r.graph.customers(1000).empty());

  // Tier-2 100 carries >= 5 customers in the sample.
  ASSERT_NE(r.graph.info(100), nullptr);
  EXPECT_EQ(r.graph.info(100)->tier, 2);
  EXPECT_GE(r.graph.customers(100).size(), 5u);
}

TEST(CaidaLoad, GrammarAccepts) {
  // Three-field records, four-field records with a source tag, comments,
  // blank lines, and a trailing record with no final newline.
  const CaidaResult r = load_caida_text(
      "# serial-2 sample\n"
      "\n"
      "64496|64497|-1|bgp\n"
      "64497|64511|-1\n"
      "64496|64499|0|mlp\n"
      "64499|64511|0");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.stats.total_lines, 6u);
  EXPECT_EQ(r.stats.comment_lines, 1u);
  EXPECT_EQ(r.stats.p2c_edges, 2u);
  EXPECT_EQ(r.stats.p2p_edges, 2u);
  EXPECT_EQ(r.stats.as_count, 4u);
  EXPECT_EQ(r.graph.relationship(64497, 64496), NeighborKind::kProvider);
  EXPECT_EQ(r.graph.relationship(64499, 64511), NeighborKind::kPeer);
}

TEST(CaidaLoad, AsnBoundaries) {
  // 2^32 - 1 is the last legal ASN.
  EXPECT_TRUE(load_caida_text("4294967295|1|-1\n").ok);
  EXPECT_FALSE(load_caida_text("4294967296|1|-1\n").ok);
  EXPECT_FALSE(load_caida_text("99999999999|1|-1\n").ok);  // > 10 digits
  EXPECT_FALSE(load_caida_text("0|1|-1\n").ok);            // ASN 0 reserved
  EXPECT_FALSE(load_caida_text("007|1|-1\n").ok);          // leading zeros
  EXPECT_FALSE(load_caida_text("-3|1|-1\n").ok);
  EXPECT_FALSE(load_caida_text("1x|1|-1\n").ok);
}

TEST(CaidaLoad, RejectsWithLineNumberedReasons) {
  // Each malformation from the FORMATS.md §4.1 rejection table, with the
  // offending line number in the diagnostic. The two-line prologue
  // (comment + valid record) pins the counter at 3.
  const std::string prologue = "# hdr\n1|2|-1\n";
  const struct {
    const char* bad_line;
    const char* reason;
  } kVectors[] = {
      {"1|2", "expected 3 or 4 '|' fields"},
      {"1|2|-1|bgp|x", "expected 3 or 4 '|' fields"},
      {"x|2|-1", "malformed first ASN"},
      {"|2|-1", "malformed first ASN"},
      {"1|y|-1", "malformed second ASN"},
      {"1||-1", "malformed second ASN"},
      {"1|2|1", "relationship must be -1 or 0"},
      {"1|2|-2", "relationship must be -1 or 0"},
      {"1|2|", "relationship must be -1 or 0"},
      {"1|2|p2p", "relationship must be -1 or 0"},
      {"3|4|-1|", "empty source field"},
      {"5|5|-1", "self edge"},
      {"1|2|0", "duplicate edge for AS pair"},   // same pair, other rel
      {"2|1|-1", "duplicate edge for AS pair"},  // reversed pair
  };
  for (const auto& v : kVectors) {
    const CaidaResult r = load_caida_text(prologue + v.bad_line + "\n");
    EXPECT_FALSE(r.ok) << v.bad_line;
    EXPECT_EQ(r.error, std::string("line 3: ") + v.reason) << v.bad_line;
    EXPECT_EQ(r.graph.size(), 0u);
  }
}

TEST(CaidaLoad, RejectsControlCharacters) {
  // CRLF line endings are a control character inside the record — the
  // snapshot was corrupted or DOS-encoded, either way not canonical.
  const CaidaResult crlf = load_caida_text("1|2|-1\r\n");
  EXPECT_FALSE(crlf.ok);
  EXPECT_EQ(crlf.error, "line 1: control character in record");
  EXPECT_FALSE(load_caida_text("1|2\t|-1\n").ok);
  EXPECT_FALSE(load_caida_text(std::string_view("1|2|\x00-1\n", 8)).ok);
}

TEST(CaidaLoad, EmptyInputsReport) {
  for (const char* text : {"", "\n\n", "# only comments\n# here\n"}) {
    const CaidaResult r = load_caida_text(text);
    EXPECT_FALSE(r.ok) << '"' << text << '"';
    EXPECT_EQ(r.error, "no relationship records");
  }
  const CaidaResult missing = load_caida_file("/nonexistent/rel.txt");
  EXPECT_FALSE(missing.ok);
  EXPECT_NE(missing.error.find("/nonexistent/rel.txt"), std::string::npos);
}

TEST(CaidaLoad, RejectsCustomerProviderCycle) {
  // A whole-file rule, so no line prefix. AS 5 sits above the cycle and
  // AS 9 below it, and a peering edge crosses it: the diagnostic names
  // exactly the ASes on the cycle, provider -> customer.
  const CaidaResult r = load_caida_text(
      "5|1|-1\n1|2|-1\n2|3|-1\n1|7|0\n3|9|-1\n3|1|-1\n");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "customer-provider cycle: AS1 -> AS2 -> AS3 -> AS1");
  EXPECT_EQ(r.graph.size(), 0u);
  // The same edges with 1 -> 3 instead of 3 -> 1 form a diamond, not a
  // cycle.
  EXPECT_TRUE(
      load_caida_text("5|1|-1\n1|2|-1\n2|3|-1\n1|7|0\n3|9|-1\n1|3|-1\n")
          .ok);
}

TEST(CaidaLoad, LabelSynthesisIsPureInAsn) {
  // The same ASN must get identical labels regardless of which file it
  // appears in or which edges surround it — only the tier may differ
  // (it is a function of edge shape).
  const CaidaResult a = load_caida_text("64496|64497|-1\n64496|64498|0\n");
  const CaidaResult b = load_caida_text("7|64496|-1\n");
  ASSERT_TRUE(a.ok && b.ok);
  const topology::AsInfo* ia = a.graph.info(64496);
  const topology::AsInfo* ib = b.graph.info(64496);
  ASSERT_NE(ia, nullptr);
  ASSERT_NE(ib, nullptr);
  EXPECT_EQ(ia->name, "AS64496");
  EXPECT_EQ(ia->name, ib->name);
  EXPECT_EQ(ia->rir, ib->rir);
  EXPECT_EQ(ia->country, ib->country);
}

// Graph equality on the serial-2 surface: same ASN set, same
// relationship for every pair that appears in either graph.
void expect_same_relationships(const AsGraph& x, const AsGraph& y) {
  ASSERT_EQ(x.size(), y.size());
  for (const topology::Asn asn : x.all_asns()) {
    ASSERT_TRUE(y.contains(asn)) << asn;
    for (const auto& [kind, list] :
         {std::pair{NeighborKind::kProvider, x.providers(asn)},
          std::pair{NeighborKind::kCustomer, x.customers(asn)},
          std::pair{NeighborKind::kPeer, x.peers(asn)}}) {
      for (const topology::Asn n : list) {
        EXPECT_EQ(y.relationship(asn, n), kind) << asn << " -> " << n;
      }
    }
  }
}

TEST(CaidaWrite, CanonicalFormSortsAndStripsDecoration) {
  const CaidaResult r = load_caida_text(
      "# comment\n"
      "9|1|0|mlp\n"
      "5|6|-1\n"
      "1|2|-1|bgp\n"
      "1|7|0\n");
  ASSERT_TRUE(r.ok) << r.error;
  // p2c sorted by (provider, customer) first, then p2p as lo|hi sorted.
  EXPECT_EQ(write_caida_text(r.graph), "1|2|-1\n5|6|-1\n1|7|0\n1|9|0\n");
}

TEST(CaidaWrite, SampleFileReachesFixedPoint) {
  const CaidaResult loaded = load_caida_file(sample_path());
  ASSERT_TRUE(loaded.ok) << loaded.error;
  const std::string c1 = write_caida_text(loaded.graph);
  const CaidaResult reloaded = load_caida_text(c1);
  ASSERT_TRUE(reloaded.ok) << reloaded.error;
  EXPECT_EQ(write_caida_text(reloaded.graph), c1);
  expect_same_relationships(loaded.graph, reloaded.graph);
}

TEST(CaidaWrite, GeneratedTopologyRoundTrips) {
  // A synthetic world survives the serial-2 surface: every relationship
  // is representable (no isolated ASes in generated graphs) and the
  // writer's output is a fixed point.
  topology::TopologyParams params;
  params.tier1_count = 4;
  params.tier2_count = 10;
  params.tier3_count = 24;
  params.stub_count = 80;
  util::Rng rng(1234);
  const AsGraph generated = topology::generate_topology(params, rng);
  const std::string text = write_caida_text(generated);
  const CaidaResult reloaded = load_caida_text(text);
  ASSERT_TRUE(reloaded.ok) << reloaded.error;
  expect_same_relationships(generated, reloaded.graph);
  EXPECT_EQ(write_caida_text(reloaded.graph), text);
}

// The fuzz battery. run_wire_fuzz's byte-identity dichotomy does not
// apply here (see file comment); instead every accepted mutant must
// canonicalize to a fixed point. Rejected mutants must leave an error
// and an empty graph.
void check_canonicalization(const std::string& input, std::size_t& accepted) {
  const CaidaResult r = load_caida_text(input);
  if (!r.ok) {
    EXPECT_FALSE(r.error.empty());
    EXPECT_EQ(r.graph.size(), 0u);
    return;
  }
  ++accepted;
  const std::string c1 = write_caida_text(r.graph);
  const CaidaResult r1 = load_caida_text(c1);
  ASSERT_TRUE(r1.ok) << "canonical form rejected: " << r1.error
                     << "\ninput: " << input;
  ASSERT_EQ(write_caida_text(r1.graph), c1)
      << "write(load()) not a fixed point for input: " << input;
}

TEST(CaidaFuzz, MutantsEitherRejectOrCanonicalize) {
  std::vector<std::string> seeds = {
      "1|2|-1\n2|3|-1\n1|4|0\n",
      "# hdr\n64496|64497|-1|bgp\n64497|64499|-1\n64496|64500|0|mlp\n",
  };
  {
    const CaidaResult sample = load_caida_file(sample_path());
    ASSERT_TRUE(sample.ok) << sample.error;
    seeds.push_back(write_caida_text(sample.graph));
  }

  test::FuzzRng rng(0xca1dau);
  std::size_t accepted = 0;
  for (const std::string& seed : seeds) {
    check_canonicalization(seed, accepted);
    const std::vector<std::uint8_t> bytes(seed.begin(), seed.end());
    for (int i = 0; i < 400; ++i) {
      const std::vector<std::uint8_t> m = test::detail::mutate(bytes, rng);
      check_canonicalization(std::string(m.begin(), m.end()), accepted);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // Digit flips and line truncations routinely stay grammatical — a
  // battery where nothing is accepted would prove nothing about the
  // canonicalization property.
  EXPECT_GT(accepted, seeds.size() + 20);
}

TEST(CaidaFuzz, RandomBuffersNeverCrash) {
  test::FuzzRng rng(0x5e21a12u);
  std::size_t accepted = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string buf(rng.below(96), '\0');
    for (char& c : buf) c = static_cast<char>(rng.byte());
    check_canonicalization(buf, accepted);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace rovista

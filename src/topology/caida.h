// CAIDA serial-2 AS-relationship ingest (docs/FORMATS.md §4).
//
// Loads the `<provider>|<customer>|-1` / `<peer>|<peer>|0` text format
// published by CAIDA's as-relationships dataset into an AsGraph, with the
// same strictness discipline as the RVCP/RQP codecs: every malformation is
// rejected with a line-numbered reason rather than skipped, so a corrupted
// snapshot can never silently load as a smaller Internet. Tier, RIR and
// country labels are synthesized deterministically from the loaded edges
// (the relationship file carries none), feeding the tier-driven scenario
// machinery (ROV adoption timeline, attacker placement) unchanged.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "topology/as_graph.h"

namespace rovista::topology {

/// Counters describing one successful load.
struct CaidaStats {
  std::size_t total_lines = 0;    // every line, including comments/blanks
  std::size_t comment_lines = 0;  // '#'-prefixed
  std::size_t p2c_edges = 0;      // rel -1 records
  std::size_t p2p_edges = 0;      // rel 0 records
  std::size_t as_count = 0;       // distinct ASNs
};

/// Result of a load attempt. On failure `ok` is false, `graph` is empty
/// and `error` names the first offending line ("line 17: ...") or the
/// whole-file rule that failed ("no relationship records",
/// "customer-provider cycle: AS1 -> AS2 -> AS3 -> AS1").
struct CaidaResult {
  bool ok = false;
  AsGraph graph;
  CaidaStats stats;
  std::string error;
};

/// Parse serial-2 text (grammar: docs/FORMATS.md §4.1). Strict: unknown
/// relationship codes, non-decimal ASNs, self-edges, duplicate edges and
/// customer-provider cycles all fail the whole load.
CaidaResult load_caida_text(std::string_view text);

/// Read `path` and parse it; I/O failures report as `ok == false` with
/// the path in `error`.
CaidaResult load_caida_file(const std::string& path);

/// Canonical serializer (docs/FORMATS.md §4.2): p2c records sorted by
/// (provider, customer), then p2p records with the lower ASN first sorted
/// by (low, high); no comments, no source fields, LF line endings.
/// load(write(g)) succeeds for every acyclic graph, and write∘load is a
/// fixed point on its own output — the property the fuzz battery
/// enforces.
std::string write_caida_text(const AsGraph& graph);

}  // namespace rovista::topology

#include "bgp/flat_propagation.h"

#include <algorithm>
#include <stdexcept>

#include "bgp/policy.h"

namespace rovista::bgp::flat {

namespace {

// Mirrors of the static helpers in policy.cpp; test_flat_propagation
// pins them to the real functions over the full argument space.
int validity_rank(std::uint8_t v) noexcept {
  switch (static_cast<rpki::RouteValidity>(v)) {
    case rpki::RouteValidity::kValid:
      return 2;
    case rpki::RouteValidity::kUnknown:
      return 1;
    case rpki::RouteValidity::kInvalid:
      return 0;
  }
  return 0;
}

// Slot class → Gao–Rexford local preference (customer 3, peer 2,
// provider 1), matching policy.cpp's local_pref.
int local_pref(std::uint8_t cls) noexcept { return 3 - cls; }

// One candidate route during selection.
struct Cand {
  bool has = false;
  std::uint8_t cls = 0;
  std::uint32_t nh = kNoIdx;
  std::uint32_t oi = 0;
  std::uint32_t plen = 0;
  std::uint8_t val = 0;
};

}  // namespace

FlatGraph FlatGraph::build(const topology::AsGraph& graph) {
  FlatGraph g;
  g.asn_of = graph.all_asns();
  const std::uint32_t n = g.size();
  g.idx_of.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) g.idx_of.emplace(g.asn_of[i], i);

  const auto build_csr = [&](auto&& row_of) {
    Csr csr;
    csr.offsets.assign(n + 1, 0);
    for (std::uint32_t i = 0; i < n; ++i) {
      csr.offsets[i + 1] =
          csr.offsets[i] +
          static_cast<std::uint32_t>(row_of(g.asn_of[i]).size());
    }
    csr.targets.resize(csr.offsets[n]);
    for (std::uint32_t i = 0; i < n; ++i) {
      std::uint32_t cursor = csr.offsets[i];
      for (const Asn neighbor : row_of(g.asn_of[i])) {
        csr.targets[cursor++] = g.idx_of.at(neighbor);
      }
    }
    return csr;
  };
  g.customers = build_csr([&](Asn a) -> const std::vector<Asn>& {
    return graph.customers(a);
  });
  g.peers =
      build_csr([&](Asn a) -> const std::vector<Asn>& { return graph.peers(a); });
  g.providers = build_csr([&](Asn a) -> const std::vector<Asn>& {
    return graph.providers(a);
  });

  // Kahn over customer → provider edges: rank(leaf) = 0, rank(provider)
  // = 1 + max over customers. Nodes stuck on a p2c cycle never drain.
  g.rank.assign(n, 0);
  std::vector<std::uint32_t> pending(n);
  std::vector<std::uint32_t> ready;
  ready.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    pending[i] = g.customers.offsets[i + 1] - g.customers.offsets[i];
    if (pending[i] == 0) ready.push_back(i);
  }
  std::uint32_t drained = 0;
  for (std::uint32_t head = 0; head < ready.size(); ++head) {
    const std::uint32_t i = ready[head];
    ++drained;
    for (const std::uint32_t* p = g.providers.begin(i);
         p != g.providers.end(i); ++p) {
      g.rank[*p] = std::max(g.rank[*p], g.rank[i] + 1);
      if (--pending[*p] == 0) ready.push_back(*p);
    }
  }
  if (drained != n) {
    throw std::runtime_error(topology::describe_customer_cycle(
        topology::find_customer_cycle(graph)));
  }

  // Counting sort by rank; index order within a rank (no two ASes of
  // equal rank share a p2c edge, so within-rank order is immaterial —
  // the fixed order just keeps runs reproducible).
  std::uint32_t max_rank = 0;
  for (const std::uint32_t r : g.rank) max_rank = std::max(max_rank, r);
  std::vector<std::uint32_t> bucket_start(max_rank + 2, 0);
  for (const std::uint32_t r : g.rank) ++bucket_start[r + 1];
  for (std::uint32_t r = 1; r < bucket_start.size(); ++r) {
    bucket_start[r] += bucket_start[r - 1];
  }
  g.up_order.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    g.up_order[bucket_start[g.rank[i]]++] = i;
  }
  return g;
}

void FlatRouteTable::prepare(std::size_t n) {
  if (stamp.size() != n) {
    stamp.assign(n, 0);
    flags.assign(n, 0);
    best_cls.assign(n, 0);
    for (int s = 0; s < 4; ++s) {
      next_hop[s].assign(n, kNoIdx);
      origin_oi[s].assign(n, 0);
      path_len[s].assign(n, 0);
      validity[s].assign(n, 0);
    }
    epoch = 1;
    return;
  }
  if (++epoch == 0) {  // u32 wrap: every stamp is stale again
    std::fill(stamp.begin(), stamp.end(), 0);
    epoch = 1;
  }
}

std::size_t FlatRouteTable::bytes() const noexcept {
  const std::size_t n = stamp.size();
  return n * (sizeof(std::uint32_t)        // stamp
              + 2 * sizeof(std::uint8_t)   // flags + best_cls
              + 4 * (3 * sizeof(std::uint32_t) + sizeof(std::uint8_t)));
}

std::uint64_t FlatRouteTable::digest() const noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (std::uint32_t i = 0; i < stamp.size(); ++i) {
    if (!has(i, kBest)) continue;
    mix(i);
    mix(best_cls[i]);
    mix(next_hop[kBest][i]);
    mix(origin_oi[kBest][i]);
    mix(path_len[kBest][i]);
    mix(validity[kBest][i]);
  }
  return h;
}

bool propagate(const PrefixInput& in, FlatRouteTable& t) {
  const FlatGraph& g = *in.graph;
  const FlatPolicy& pol = *in.policy;
  const std::uint32_t n = g.size();
  const std::uint32_t norigins =
      static_cast<std::uint32_t>(in.origin_idx.size());
  t.prepare(n);
  if (norigins == 0) return true;

  const auto validity_of = [&](std::uint32_t r, std::uint32_t oi) {
    return static_cast<std::uint8_t>(
        in.validity[pol.validity_group[r] * norigins + oi]);
  };

  // Self-origination always wins selection, so an originator's best is
  // fixed up front and its class slots are never needed.
  for (std::uint32_t oi = 0; oi < norigins; ++oi) {
    const std::uint32_t i = in.origin_idx[oi];
    t.touch(i);
    t.flags[i] = FlatRouteTable::kOriginates | (1u << FlatRouteTable::kBest);
    t.best_cls[i] = FlatRouteTable::kCust;
    t.next_hop[FlatRouteTable::kBest][i] = kNoIdx;
    t.origin_oi[FlatRouteTable::kBest][i] = oi;
    t.path_len[FlatRouteTable::kBest][i] = 1;
    t.validity[FlatRouteTable::kBest][i] = validity_of(i, oi);
  }

  // prefer_route on compact candidates. Strict total order: next-hop
  // ASNs are the distinct offering neighbors.
  const auto prefer = [&](bool prefer_valid, const Cand& c,
                          const Cand& b) noexcept {
    if (prefer_valid) {
      const int vc = validity_rank(c.val);
      const int vb = validity_rank(b.val);
      if (vc != vb) return vc > vb;
    }
    const int lc = local_pref(c.cls);
    const int lb = local_pref(b.cls);
    if (lc != lb) return lc > lb;
    if (c.plen != b.plen) return c.plen < b.plen;
    return g.asn_of[c.nh] < g.asn_of[b.nh];
  };

  // rov_accepts on mirrored policy fields (import at receiver `r` of a
  // route of validity `val` from neighbor `nidx` of class `cls`).
  const auto accepts = [&](std::uint32_t r, std::uint32_t nidx,
                           std::uint8_t cls, std::uint8_t val) noexcept {
    if (static_cast<rpki::RouteValidity>(val) !=
        rpki::RouteValidity::kInvalid) {
      return true;
    }
    switch (static_cast<RovMode>(pol.rov_mode[r])) {
      case RovMode::kNone:
      case RovMode::kPreferValid:
        return true;
      case RovMode::kExemptCustomers:
        if (cls == FlatRouteTable::kCust) return true;
        break;
      case RovMode::kFull:
      case RovMode::kRovPlusPlus:
        break;
    }
    return !session_is_rov_capable(g.asn_of[r], g.asn_of[nidx], in.prefix,
                                   pol.coverage[r]);
  };

  // What neighbor `nidx` (class `cls` from the receiver `r`'s view)
  // offers `r` right now. Loop prevention walks the offerer's next-hop
  // chain — bounded by its path length, so a transiently inconsistent
  // chain terminates; at the certified fixed point the walk *is* the
  // exact AS path (path lengths strictly decrease along final chains).
  const auto offer = [&](std::uint32_t r, std::uint8_t cls,
                         std::uint32_t nidx) noexcept {
    Cand c;
    if (!t.has(nidx, FlatRouteTable::kBest)) return c;
    // Export gate: providers export everything to customers; customers
    // and peers only forward customer-learned (or self-originated)
    // routes.
    if (cls != FlatRouteTable::kProv &&
        t.best_cls[nidx] != FlatRouteTable::kCust) {
      return c;
    }
    const std::uint32_t plen = t.path_len[FlatRouteTable::kBest][nidx];
    std::uint32_t cur = nidx;
    for (std::uint32_t step = 0; step < plen; ++step) {
      if (cur == r) return c;  // receiver already on the path
      const std::uint32_t next = t.next_hop[FlatRouteTable::kBest][cur];
      if (next == kNoIdx || !t.has(next, FlatRouteTable::kBest)) break;
      cur = next;
    }
    const std::uint32_t oi = t.origin_oi[FlatRouteTable::kBest][nidx];
    const std::uint8_t val = validity_of(r, oi);
    if (!accepts(r, nidx, cls, val)) return c;
    c.has = true;
    c.cls = cls;
    c.nh = nidx;
    c.oi = oi;
    c.plen = plen + 1;
    c.val = val;
    return c;
  };

  // Recompute one class slot and the best at `r`; true if best changed.
  const auto recompute = [&](std::uint32_t r, std::uint8_t cls,
                             const Csr& row) {
    t.touch(r);
    const bool prefer_valid =
        static_cast<RovMode>(pol.rov_mode[r]) == RovMode::kPreferValid;
    Cand slot;
    for (const std::uint32_t* p = row.begin(r); p != row.end(r); ++p) {
      const Cand c = offer(r, cls, *p);
      if (c.has && (!slot.has || prefer(prefer_valid, c, slot))) slot = c;
    }
    if (slot.has) {
      t.flags[r] |= 1u << cls;
      t.next_hop[cls][r] = slot.nh;
      t.origin_oi[cls][r] = slot.oi;
      t.path_len[cls][r] = slot.plen;
      t.validity[cls][r] = slot.val;
    } else {
      t.flags[r] &= static_cast<std::uint8_t>(~(1u << cls));
    }

    Cand best;
    for (std::uint8_t s = 0; s < 3; ++s) {
      if (!t.has(r, s)) continue;
      Cand c;
      c.has = true;
      c.cls = s;
      c.nh = t.next_hop[s][r];
      c.oi = t.origin_oi[s][r];
      c.plen = t.path_len[s][r];
      c.val = t.validity[s][r];
      if (!best.has || prefer(prefer_valid, c, best)) best = c;
    }
    const bool had = t.has(r, FlatRouteTable::kBest);
    const bool changed =
        best.has != had ||
        (best.has && (best.cls != t.best_cls[r] ||
                      best.nh != t.next_hop[FlatRouteTable::kBest][r] ||
                      best.oi != t.origin_oi[FlatRouteTable::kBest][r] ||
                      best.plen != t.path_len[FlatRouteTable::kBest][r] ||
                      best.val != t.validity[FlatRouteTable::kBest][r]));
    if (changed) {
      if (best.has) {
        t.flags[r] |= 1u << FlatRouteTable::kBest;
        t.best_cls[r] = best.cls;
        t.next_hop[FlatRouteTable::kBest][r] = best.nh;
        t.origin_oi[FlatRouteTable::kBest][r] = best.oi;
        t.path_len[FlatRouteTable::kBest][r] = best.plen;
        t.validity[FlatRouteTable::kBest][r] = best.val;
      } else {
        t.flags[r] &=
            static_cast<std::uint8_t>(~(1u << FlatRouteTable::kBest));
      }
    }
    return changed;
  };

  // Sweep to the fixed point. kMaxSweeps is a refusal threshold, not a
  // truncation: hitting it returns false, never a partial table.
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    std::size_t changes = 0;
    for (const std::uint32_t r : g.up_order) {  // UP: customer wave
      if (t.originates(r)) continue;
      changes += recompute(r, FlatRouteTable::kCust, g.customers) ? 1 : 0;
    }
    for (std::uint32_t r = 0; r < n; ++r) {  // ACROSS: one peer exchange
      if (t.originates(r)) continue;
      changes += recompute(r, FlatRouteTable::kPeer, g.peers) ? 1 : 0;
    }
    for (auto it = g.up_order.rbegin(); it != g.up_order.rend(); ++it) {
      const std::uint32_t r = *it;  // DOWN: provider wave
      if (t.originates(r)) continue;
      changes += recompute(r, FlatRouteTable::kProv, g.providers) ? 1 : 0;
    }
    if (changes == 0) return true;
  }
  return false;
}

}  // namespace rovista::bgp::flat

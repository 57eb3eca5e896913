#include "topology/as_graph.h"

#include <algorithm>
#include <cstddef>

namespace rovista::topology {

const std::vector<Asn> AsGraph::kEmpty;

bool AsGraph::add_as(AsInfo info) {
  ++generation_;
  const Asn asn = info.asn;
  if (nodes_.contains(asn)) return false;
  Node node;
  node.info = std::move(info);
  nodes_.emplace(asn, std::move(node));
  insertion_order_.push_back(asn);
  return true;
}

bool AsGraph::contains(Asn asn) const noexcept { return nodes_.contains(asn); }

const AsInfo* AsGraph::info(Asn asn) const noexcept {
  const Node* n = node(asn);
  return n != nullptr ? &n->info : nullptr;
}

const AsGraph::Node* AsGraph::node(Asn asn) const noexcept {
  const auto it = nodes_.find(asn);
  return it != nodes_.end() ? &it->second : nullptr;
}

AsGraph::Node* AsGraph::node(Asn asn) noexcept {
  const auto it = nodes_.find(asn);
  return it != nodes_.end() ? &it->second : nullptr;
}

bool AsGraph::add_p2c(Asn provider, Asn customer) {
  ++generation_;
  if (provider == customer) return false;
  Node* p = node(provider);
  Node* c = node(customer);
  if (p == nullptr || c == nullptr) return false;
  if (relationship(provider, customer).has_value()) return false;
  p->customers.push_back(customer);
  c->providers.push_back(provider);
  return true;
}

bool AsGraph::add_p2p(Asn a, Asn b) {
  ++generation_;
  if (a == b) return false;
  Node* na = node(a);
  Node* nb = node(b);
  if (na == nullptr || nb == nullptr) return false;
  if (relationship(a, b).has_value()) return false;
  na->peers.push_back(b);
  nb->peers.push_back(a);
  return true;
}

bool AsGraph::remove_edge(Asn a, Asn b) {
  ++generation_;
  Node* na = node(a);
  Node* nb = node(b);
  if (na == nullptr || nb == nullptr) return false;
  bool removed = false;
  const auto drop = [&](std::vector<Asn>& v, Asn target) {
    const auto it = std::find(v.begin(), v.end(), target);
    if (it != v.end()) {
      v.erase(it);
      removed = true;
    }
  };
  drop(na->providers, b);
  drop(na->customers, b);
  drop(na->peers, b);
  drop(nb->providers, a);
  drop(nb->customers, a);
  drop(nb->peers, a);
  return removed;
}

bool AsGraph::set_relationship(Asn a, Asn b, NeighborKind kind_of_b) {
  ++generation_;
  if (a == b || node(a) == nullptr || node(b) == nullptr) return false;
  remove_edge(a, b);
  switch (kind_of_b) {
    case NeighborKind::kCustomer:
      return add_p2c(a, b);
    case NeighborKind::kProvider:
      return add_p2c(b, a);
    case NeighborKind::kPeer:
      return add_p2p(a, b);
  }
  return false;
}

const std::vector<Asn>& AsGraph::providers(Asn asn) const noexcept {
  const Node* n = node(asn);
  return n != nullptr ? n->providers : kEmpty;
}

const std::vector<Asn>& AsGraph::customers(Asn asn) const noexcept {
  const Node* n = node(asn);
  return n != nullptr ? n->customers : kEmpty;
}

const std::vector<Asn>& AsGraph::peers(Asn asn) const noexcept {
  const Node* n = node(asn);
  return n != nullptr ? n->peers : kEmpty;
}

std::vector<Neighbor> AsGraph::neighbors(Asn asn) const {
  std::vector<Neighbor> out;
  const Node* n = node(asn);
  if (n == nullptr) return out;
  out.reserve(n->providers.size() + n->customers.size() + n->peers.size());
  for (Asn p : n->providers) out.push_back({p, NeighborKind::kProvider});
  for (Asn c : n->customers) out.push_back({c, NeighborKind::kCustomer});
  for (Asn p : n->peers) out.push_back({p, NeighborKind::kPeer});
  return out;
}

std::optional<NeighborKind> AsGraph::relationship(Asn asn,
                                                  Asn neighbor) const {
  const Node* n = node(asn);
  if (n == nullptr) return std::nullopt;
  const auto has = [&](const std::vector<Asn>& v) {
    return std::find(v.begin(), v.end(), neighbor) != v.end();
  };
  if (has(n->providers)) return NeighborKind::kProvider;
  if (has(n->customers)) return NeighborKind::kCustomer;
  if (has(n->peers)) return NeighborKind::kPeer;
  return std::nullopt;
}

std::vector<Asn> AsGraph::transit_free() const {
  std::vector<Asn> out;
  for (Asn asn : insertion_order_) {
    if (providers(asn).empty()) out.push_back(asn);
  }
  return out;
}

std::vector<Asn> AsGraph::all_asns() const { return insertion_order_; }

std::vector<Asn> find_customer_cycle(const AsGraph& graph) {
  // Kahn from the leaves up: an AS drains once all its customers have.
  // An AS that never drains keeps an undrained customer, so walking
  // undrained customer edges from one must revisit an AS.
  const std::vector<Asn> asns = graph.all_asns();
  std::unordered_map<Asn, std::size_t> pending;
  pending.reserve(asns.size());
  std::vector<Asn> drained;
  for (const Asn asn : asns) {
    const std::size_t customers = graph.customers(asn).size();
    pending.emplace(asn, customers);
    if (customers == 0) drained.push_back(asn);
  }
  for (std::size_t head = 0; head < drained.size(); ++head) {
    for (const Asn provider : graph.providers(drained[head])) {
      if (--pending[provider] == 0) drained.push_back(provider);
    }
  }
  if (drained.size() == asns.size()) return {};

  Asn cur = 0;
  for (const Asn asn : asns) {
    if (pending[asn] != 0) {
      cur = asn;
      break;
    }
  }
  std::unordered_map<Asn, std::size_t> position;
  std::vector<Asn> walk;
  while (position.emplace(cur, walk.size()).second) {
    walk.push_back(cur);
    for (const Asn customer : graph.customers(cur)) {
      if (pending[customer] != 0) {
        cur = customer;
        break;
      }
    }
  }
  return {walk.begin() + static_cast<std::ptrdiff_t>(position[cur]),
          walk.end()};
}

std::string describe_customer_cycle(const std::vector<Asn>& cycle) {
  std::string out = "customer-provider cycle:";
  for (const Asn asn : cycle) out += " AS" + std::to_string(asn) + " ->";
  return out + " AS" + std::to_string(cycle.front());
}

}  // namespace rovista::topology

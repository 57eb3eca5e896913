#include "rpki/repository.h"

#include <algorithm>

namespace rovista::rpki {

namespace {

ResourceSet full_ipv4_space() {
  ResourceSet rs;
  rs.prefixes.push_back(net::Ipv4Prefix(net::Ipv4Address(0), 0));
  return rs;
}

}  // namespace

Repository::Repository(topology::Rir rir, std::uint64_t seed,
                       util::Date ta_not_before, util::Date ta_not_after)
    : rir_(rir), key_seed_(seed) {
  ta_key_ = SimulatedCrypto::derive(seed);
  crypto_.register_key(ta_key_);

  trust_anchor_.serial = next_serial_++;
  trust_anchor_.subject = std::string(topology::rir_name(rir)) + "-TA";
  // Real trust anchors carry 0.0.0.0/0 + all ASNs; ASN containment for
  // TAs is treated as universal via the empty-asns convention below.
  trust_anchor_.resources = full_ipv4_space();
  trust_anchor_.key_id = ta_key_.key_id;
  trust_anchor_.issuer_key_id = ta_key_.key_id;  // self-signed
  trust_anchor_.not_before = ta_not_before;
  trust_anchor_.not_after = ta_not_after;
  trust_anchor_.signature = ta_key_.sign(trust_anchor_.payload_digest());
  trust_anchor_.is_trust_anchor = true;
  certificates_.push_back(trust_anchor_);
  cert_keys_[trust_anchor_.serial] = ta_key_;
}

std::optional<std::uint64_t> Repository::issue_certificate(
    const std::string& subject, ResourceSet resources, util::Date not_before,
    util::Date not_after) {
  ++generation_;
  // Trust anchors hold the whole space; refuse only nonsense requests.
  const bool covered = std::all_of(
      resources.prefixes.begin(), resources.prefixes.end(),
      [&](const net::Ipv4Prefix& p) {
        return trust_anchor_.resources.contains_prefix(p);
      });
  if (!covered) return std::nullopt;

  const KeyPair key = SimulatedCrypto::derive(key_seed_ ^ (next_serial_ * 0x9e3779b97f4a7c15ULL));
  crypto_.register_key(key);

  Certificate cert;
  cert.serial = next_serial_++;
  cert.subject = subject;
  cert.resources = std::move(resources);
  cert.key_id = key.key_id;
  cert.issuer_key_id = ta_key_.key_id;
  cert.not_before = not_before;
  cert.not_after = not_after;
  cert.signature = ta_key_.sign(cert.payload_digest());
  certificates_.push_back(cert);
  cert_keys_[cert.serial] = key;
  return cert.serial;
}

bool Repository::publish_roa(std::uint64_t cert_serial, Asn asn,
                             std::vector<RoaPrefix> prefixes,
                             util::Date not_before, util::Date not_after) {
  ++generation_;
  const auto it = cert_keys_.find(cert_serial);
  if (it == cert_keys_.end()) return false;
  Roa roa;
  roa.asn = asn;
  roa.prefixes = std::move(prefixes);
  roa.not_before = not_before;
  roa.not_after = not_after;
  roa.signing_cert = cert_serial;
  roa.signature = it->second.sign(roa.payload_digest());
  roas_.push_back(std::move(roa));
  return true;
}

std::size_t Repository::withdraw_roa(std::uint64_t cert_serial, Asn asn,
                                     const net::Ipv4Prefix& prefix) {
  ++generation_;
  const std::size_t before = roas_.size();
  roas_.erase(
      std::remove_if(roas_.begin(), roas_.end(),
                     [&](const Roa& roa) {
                       if (roa.signing_cert != cert_serial || roa.asn != asn) {
                         return false;
                       }
                       return std::any_of(roa.prefixes.begin(),
                                          roa.prefixes.end(),
                                          [&](const RoaPrefix& p) {
                                            return p.prefix == prefix;
                                          });
                     }),
      roas_.end());
  return before - roas_.size();
}

const Certificate* Repository::find_certificate(
    std::uint64_t serial) const noexcept {
  const auto it = std::find_if(
      certificates_.begin(), certificates_.end(),
      [&](const Certificate& c) { return c.serial == serial; });
  return it != certificates_.end() ? &*it : nullptr;
}

RepositorySystem::RepositorySystem(std::uint64_t seed,
                                   util::Date ta_not_before,
                                   util::Date ta_not_after) {
  repos_.reserve(topology::kRirCount);
  for (int i = 0; i < topology::kRirCount; ++i) {
    repos_.emplace_back(static_cast<topology::Rir>(i),
                        seed ^ (0x12345678ULL * (static_cast<std::uint64_t>(i) + 1)),
                        ta_not_before, ta_not_after);
  }
}

Repository& RepositorySystem::repository(topology::Rir rir) noexcept {
  return repos_[static_cast<std::size_t>(rir)];
}

const Repository& RepositorySystem::repository(
    topology::Rir rir) const noexcept {
  return repos_[static_cast<std::size_t>(rir)];
}

std::uint64_t RepositorySystem::generation() const noexcept {
  std::uint64_t sum = 0;
  for (const Repository& r : repos_) sum += r.generation();
  return sum;
}

std::vector<const Repository*> RepositorySystem::all() const {
  std::vector<const Repository*> out;
  out.reserve(repos_.size());
  for (const Repository& r : repos_) out.push_back(&r);
  return out;
}

}  // namespace rovista::rpki

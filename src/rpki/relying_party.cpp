#include "rpki/relying_party.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "util/strings.h"

namespace rovista::rpki {

namespace {

// Lower `until` to the next date after `today` on which the window
// [nb, na] opens or closes.
void note_window(util::Date nb, util::Date na, util::Date today,
                 util::Date& until) {
  if (nb > today) until = std::min(until, nb);
  if (na >= today) until = std::min(until, na + 1);
}

bool window_ok(util::Date nb, util::Date na, util::Date today,
               RejectReason& why) {
  if (today < nb) {
    why = RejectReason::kNotYetValid;
    return false;
  }
  if (today > na) {
    why = RejectReason::kExpired;
    return false;
  }
  return true;
}

}  // namespace

ValidationRun run_relying_party(const RepositorySystem& repos,
                                util::Date today) {
  ValidationRun run;
  run.stable_until =
      util::Date(std::numeric_limits<std::int64_t>::max());

  for (const Repository* repo : repos.all()) {
    const SimulatedCrypto& crypto = repo->crypto();

    // Pass 1: validate certificates; build serial → cert index of the
    // accepted ones so ROA checks can find their signer.
    std::unordered_map<std::uint64_t, const Certificate*> accepted;
    for (const Certificate& cert : repo->certificates()) {
      ++run.certificates_checked;
      note_window(cert.not_before, cert.not_after, today, run.stable_until);
      RejectReason why;
      if (!window_ok(cert.not_before, cert.not_after, today, why)) {
        run.rejected.push_back({"cert " + cert.subject, why});
        continue;
      }
      if (!crypto.verify(cert.issuer_key_id, cert.payload_digest(),
                         cert.signature)) {
        run.rejected.push_back(
            {"cert " + cert.subject, RejectReason::kBadSignature});
        continue;
      }
      if (!cert.is_trust_anchor) {
        // Issuer must be the (already validated) trust anchor and must
        // hold every resource the child claims.
        const Certificate& ta = repo->trust_anchor();
        if (cert.issuer_key_id != ta.key_id) {
          run.rejected.push_back(
              {"cert " + cert.subject, RejectReason::kUnknownIssuer});
          continue;
        }
        if (!ta.resources.contains(ResourceSet{cert.resources.prefixes, {}})) {
          run.rejected.push_back(
              {"cert " + cert.subject, RejectReason::kResourceOverclaim});
          continue;
        }
      }
      accepted[cert.serial] = &cert;
    }

    // Pass 2: validate ROAs against their accepted signing certificate.
    for (const Roa& roa : repo->roas()) {
      ++run.roas_checked;
      note_window(roa.not_before, roa.not_after, today, run.stable_until);
      RejectReason why;
      if (!window_ok(roa.not_before, roa.not_after, today, why)) {
        run.rejected.push_back({roa.to_string(), why});
        continue;
      }
      const auto it = accepted.find(roa.signing_cert);
      if (it == accepted.end()) {
        run.rejected.push_back({roa.to_string(), RejectReason::kUnknownIssuer});
        continue;
      }
      const Certificate& signer = *it->second;
      // Signature check: the signer's key produced it.
      bool sig_ok = false;
      {
        // The repository registered every issued key with its crypto
        // registry; verify against the signer's key id.
        sig_ok = crypto.verify(signer.key_id, roa.payload_digest(),
                               roa.signature);
      }
      if (!sig_ok) {
        run.rejected.push_back({roa.to_string(), RejectReason::kBadSignature});
        continue;
      }
      // RFC 6487 containment: every ROA prefix must be within the signing
      // certificate's resources, else the ROA is rejected (overclaim).
      bool contained = true;
      for (const RoaPrefix& rp : roa.prefixes) {
        if (!signer.resources.contains_prefix(rp.prefix)) {
          contained = false;
          break;
        }
      }
      if (!contained) {
        run.rejected.push_back(
            {roa.to_string(), RejectReason::kResourceOverclaim});
        continue;
      }
      for (const RoaPrefix& rp : roa.prefixes) {
        run.vrps.add(Vrp{rp.prefix, rp.effective_max_length(), roa.asn});
      }
    }
  }
  return run;
}

}  // namespace rovista::rpki

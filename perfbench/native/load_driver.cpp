#include "load_driver.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <thread>

#include "serve/loadgen.h"
#include "serve/rqp.h"
#include "util/date.h"

namespace perfbench {

namespace rs = rovista::serve;

namespace {

using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int connect_tcp(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

struct Pending {
  std::uint32_t id = 0;
  double due_s = 0.0;
  int op = kScoreOp;
  std::uint32_t asn = 0;  // the AS asked for; error answers carry no body
};

// One connection. Answers come back in request order, so the pending
// queue's front is always the request the next answer belongs to.
struct Conn {
  int fd = -1;
  rs::FrameDecoder decoder{rs::kMaxResponseFrame};
  std::vector<std::uint8_t> wbuf;
  std::size_t wpos = 0;
  std::deque<Pending> pending;
};

void account(const rs::Response& response, const Pending& p,
             LoadResult& result) {
  if (response.status == rs::Status::kOk && response.epoch_sequence != 0) {
    result.min_sequence = result.min_sequence == 0
                              ? response.epoch_sequence
                              : std::min(result.min_sequence,
                                         response.epoch_sequence);
    result.max_sequence =
        std::max(result.max_sequence, response.epoch_sequence);
  }
  if (p.op == kScoreOp && response.status == rs::Status::kOk) {
    ++result.score_ok;
    result.scores.emplace(response.round_date_days, response.asn,
                          response.score_str);
    return;
  }
  if (p.op == kScoreOp && response.status == rs::Status::kUnknownAs) {
    // Legitimate only if the AS went unscored that round; the caller
    // checks that against the published dataset.
    result.unknown.emplace(response.round_date_days, p.asn);
    return;
  }
  if (response.status != rs::Status::kOk) ++result.unexpected;
}

}  // namespace

const char* op_name(int op) {
  switch (op) {
    case kScoreOp:
      return "score";
    case kTrajectoryOp:
      return "trajectory";
    case kReachOp:
      return "reach";
  }
  return "?";
}

std::vector<ReachTarget> tnode_hosts(const rovista::scenario::Scenario& world) {
  std::vector<ReachTarget> out;
  for (const auto& [prefix, origin] : world.tnode_prefixes()) {
    out.push_back(ReachTarget{prefix.address().value() + 10, 80});
  }
  return out;
}

std::vector<double> LoadResult::all_latencies_ms() const {
  std::vector<double> all;
  for (const std::vector<double>& v : latency_ms) {
    all.insert(all.end(), v.begin(), v.end());
  }
  return all;
}

std::optional<std::vector<std::uint32_t>> fetch_asns(const std::string& host,
                                                     std::uint16_t port,
                                                     double timeout_s) {
  const Clock::time_point t0 = Clock::now();
  rs::BlockingClient client;
  for (;;) {
    if (client.connected() || client.connect(host, port)) {
      rs::Request request;
      request.opcode = rs::Opcode::kAsns;
      rs::Response response;
      if (client.call(request, response) &&
          response.status == rs::Status::kOk && !response.asns.empty()) {
        return response.asns;
      }
    }
    if (secs_since(t0) > timeout_s) return std::nullopt;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

LoadResult run_open_loop(const LoadOptions& options,
                         const std::vector<std::uint32_t>& asns,
                         const std::vector<ReachTarget>& reach,
                         const std::atomic<bool>& stop) {
  LoadResult result;
  std::vector<Conn> conns(static_cast<std::size_t>(kConnections));
  for (Conn& c : conns) {
    c.fd = connect_tcp(options.host, options.port);
    if (c.fd < 0) ++result.transport_errors;
  }
  if (asns.empty() || result.transport_errors > 0) {
    for (Conn& c : conns) {
      if (c.fd >= 0) ::close(c.fd);
    }
    ++result.transport_errors;
    return result;
  }

  std::uint64_t rng = options.seed * 0x9e3779b97f4a7c15ULL + 1;
  const Clock::time_point t0 = Clock::now();
  std::uint64_t next = 0;  // index of the next scheduled request
  std::uint64_t outstanding = 0;
  bool sending = true;
  double stopped_at = 0.0;
  std::vector<pollfd> pfds;

  const auto lose = [&](Conn& c) {
    result.transport_errors += c.pending.size();
    outstanding -= c.pending.size();
    c.pending.clear();
    ::close(c.fd);
    c.fd = -1;
  };

  for (;;) {
    double now = secs_since(t0);
    if (sending && (stop.load(std::memory_order_relaxed) ||
                    now >= options.max_seconds)) {
      sending = false;
      stopped_at = now;
      result.seconds = now;
    }

    // Enqueue everything due by now, round-robin over the connections.
    while (sending) {
      const double due = static_cast<double>(next) / kRate;
      if (due > now) break;
      Conn& c = conns[next % conns.size()];
      const double mix = static_cast<double>(splitmix64(rng) >> 11) * 0x1.0p-53;
      rs::Request request;
      int op = kScoreOp;
      if (mix < kReachShare && !reach.empty()) {
        op = kReachOp;
        request.opcode = rs::Opcode::kReach;
        const ReachTarget& t = reach[splitmix64(rng) % reach.size()];
        request.dst = t.address;
        request.port = t.port;
      } else if (mix < kReachShare + kTrajectoryShare) {
        op = kTrajectoryOp;
        request.opcode = rs::Opcode::kTrajectory;
      } else {
        request.opcode = rs::Opcode::kScore;
      }
      request.request_id = static_cast<std::uint32_t>(next);
      request.asn = asns[splitmix64(rng) % asns.size()];
      ++next;
      ++result.sent;
      if (op == kScoreOp) ++result.score_sent;
      if (c.fd < 0) {
        ++result.transport_errors;
        continue;
      }
      rs::append_frame(c.wbuf, rs::encode_request(request));
      c.pending.push_back(Pending{request.request_id, due, op, request.asn});
      ++outstanding;
      result.late_ms.push_back((now - due) * 1000.0);
    }

    // Flush; whatever the socket does not take now goes out when poll
    // reports it writable.
    for (Conn& c : conns) {
      while (c.fd >= 0 && c.wpos < c.wbuf.size()) {
        const ssize_t n = ::send(c.fd, c.wbuf.data() + c.wpos,
                                 c.wbuf.size() - c.wpos,
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n > 0) {
          c.wpos += static_cast<std::size_t>(n);
        } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
          break;
        } else if (errno != EINTR) {
          lose(c);
        }
      }
      if (c.wpos == c.wbuf.size()) {
        c.wbuf.clear();
        c.wpos = 0;
      }
    }

    if (!sending) {
      if (outstanding == 0) break;
      if (secs_since(t0) - stopped_at > kDrainSeconds) {
        for (Conn& c : conns) {
          if (c.fd >= 0) lose(c);
        }
        break;
      }
    }

    // Sleep until the next request is due or an answer arrives.
    double wait_s = 0.01;
    if (sending) {
      wait_s = std::clamp(static_cast<double>(next) / kRate -
                              secs_since(t0),
                          0.0, 0.01);
    }
    pfds.clear();
    for (const Conn& c : conns) {
      if (c.fd < 0) continue;
      short events = POLLIN;
      if (c.wpos < c.wbuf.size()) events |= POLLOUT;
      pfds.push_back(pollfd{c.fd, events, 0});
    }
    if (pfds.empty() && !sending) break;
    const timespec ts{0, static_cast<long>(wait_s * 1e9)};
    ::ppoll(pfds.data(), static_cast<nfds_t>(pfds.size()), &ts, nullptr);

    for (Conn& c : conns) {
      std::uint8_t buf[65536];
      while (c.fd >= 0) {
        const ssize_t n = ::recv(c.fd, buf, sizeof buf, MSG_DONTWAIT);
        if (n > 0) {
          c.decoder.append({buf, static_cast<std::size_t>(n)});
          if (n < static_cast<ssize_t>(sizeof buf)) break;
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else {
          lose(c);
        }
      }
      if (c.fd < 0) continue;
      now = secs_since(t0);
      while (const auto frame = c.decoder.next()) {
        const std::optional<rs::Response> response = rs::parse_response(*frame);
        if (!response.has_value() || c.pending.empty() ||
            response->request_id != c.pending.front().id) {
          lose(c);
          break;
        }
        const Pending p = c.pending.front();
        c.pending.pop_front();
        --outstanding;
        ++result.received;
        result.latency_ms[static_cast<std::size_t>(p.op)].push_back(
            (now - p.due_s) * 1000.0);
        account(*response, p, result);
      }
      if (c.fd >= 0 && c.decoder.corrupt()) lose(c);
    }
  }

  for (Conn& c : conns) {
    if (c.fd >= 0) ::close(c.fd);
  }
  return result;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

bool write_score_records(const LoadResult& result, const std::string& path) {
  std::vector<rs::ScoreRecord> records;
  records.reserve(result.scores.size());
  for (const auto& [date, asn, score] : result.scores) {
    records.push_back(rs::ScoreRecord{date, asn, score});
  }
  return rs::write_record_csv(records, path);
}

bool write_unknown_records(const LoadResult& result, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("date,asn\n", f);
  for (const auto& [date, asn] : result.unknown) {
    std::fprintf(f, "%s,%u\n", rovista::util::Date(date).to_string().c_str(),
                 asn);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

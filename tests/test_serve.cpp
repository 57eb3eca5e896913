// The RQP query server (src/serve): ephemeral-port startup, per-opcode
// answers against a synthetic feed, reachability served from a pinned
// epoch vs. a direct traceroute on the same frozen world, protocol
// violations, graceful stop (in-flight responses flushed), warm-start
// seeding, and a loadgen smoke run.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analytics/rvla_io.h"
#include "core/scoring.h"
#include "dataplane/traceroute.h"
#include "round_fixture.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "snapshot/epoch_publisher.h"
#include "snapshot/world_source.h"
#include "util/csv.h"

namespace {

using namespace rovista;
using namespace rovista::serve;
using namespace std::chrono_literals;

std::vector<core::AsScore> synthetic_scores() {
  std::vector<core::AsScore> scores;
  for (std::uint32_t i = 0; i < 8; ++i) {
    core::AsScore s;
    s.asn = 64500 + i * 3;
    s.score = static_cast<double>(i) / 8.0;
    s.vvp_count = 2 + i;
    s.tnodes_consistent = i;
    s.tnodes_outbound = 1;
    scores.push_back(s);
  }
  return scores;
}

struct TestServer {
  std::shared_ptr<ScoreFeed> feed = std::make_shared<ScoreFeed>();
  std::unique_ptr<Server> server;

  explicit TestServer(int workers = 2) {
    ServerOptions options;
    options.port = 0;  // the ephemeral-port contract under test
    options.workers = workers;
    server = std::make_unique<Server>(options, feed);
  }
  ~TestServer() { server->stop(); }
};

Request make_request(Opcode op, std::uint32_t id, std::uint32_t asn = 0) {
  Request request;
  request.opcode = op;
  request.request_id = id;
  request.asn = asn;
  return request;
}

TEST(Serve, EphemeralPortAndPingThroughWarmup) {
  TestServer ts;
  ASSERT_TRUE(ts.server->start());
  EXPECT_NE(ts.server->port(), 0) << "port 0 must rebind to a real port";

  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", ts.server->port()));

  // Before the first publish: PING succeeds, sequence 0 = warming up.
  Response response;
  ASSERT_TRUE(client.call(make_request(Opcode::kPing, 1), response));
  EXPECT_EQ(response.status, Status::kOk);
  EXPECT_EQ(response.epoch_sequence, 0u);
  EXPECT_EQ(response.as_count, 0u);

  // SCORE during warmup: NO_DATA, not a hang or a close.
  ASSERT_TRUE(client.call(make_request(Opcode::kScore, 2, 64500), response));
  EXPECT_EQ(response.status, Status::kNoData);

  ts.feed->publish(util::Date::from_ymd(2021, 7, 25), synthetic_scores(),
                   snapshot::EpochRef());
  ASSERT_TRUE(client.call(make_request(Opcode::kPing, 3), response));
  EXPECT_EQ(response.status, Status::kOk);
  EXPECT_EQ(response.epoch_sequence, 1u);
  EXPECT_EQ(response.as_count, 8u);
  EXPECT_EQ(response.rounds_completed, 1u);
}

TEST(Serve, ScoreTrajectoryAndAsnsAnswers) {
  TestServer ts;
  ASSERT_TRUE(ts.server->start());
  const auto scores = synthetic_scores();
  const util::Date d1 = util::Date::from_ymd(2021, 7, 25);
  const util::Date d2 = d1 + 30;
  ts.feed->publish(d1, scores, snapshot::EpochRef());
  auto later = scores;
  later[0].score = 1.0;
  ts.feed->publish(d2, later, snapshot::EpochRef());

  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", ts.server->port()));

  Response response;
  ASSERT_TRUE(client.call(make_request(Opcode::kScore, 1, 64500), response));
  EXPECT_EQ(response.status, Status::kOk);
  EXPECT_EQ(response.asn, 64500u);
  EXPECT_EQ(response.score, 1.0);
  EXPECT_EQ(response.vvp_count, 2u);
  // The exact string core::publish_scores would write — the byte-compare
  // contract of the tier-1 concurrent-publish stage.
  EXPECT_EQ(response.score_str, util::fmt_double(1.0, 2));
  EXPECT_EQ(response.round_date_days,
            static_cast<std::int64_t>(d2.days_since_epoch()));

  ASSERT_TRUE(client.call(make_request(Opcode::kScore, 2, 1), response));
  EXPECT_EQ(response.status, Status::kUnknownAs);

  ASSERT_TRUE(
      client.call(make_request(Opcode::kTrajectory, 3, 64500), response));
  EXPECT_EQ(response.status, Status::kOk);
  ASSERT_EQ(response.trajectory.size(), 2u);
  EXPECT_EQ(response.trajectory[0].date_days, d1.days_since_epoch());
  EXPECT_EQ(response.trajectory[0].score, 0.0);
  EXPECT_EQ(response.trajectory[1].date_days, d2.days_since_epoch());
  EXPECT_EQ(response.trajectory[1].score, 1.0);

  ASSERT_TRUE(client.call(make_request(Opcode::kAsns, 4), response));
  EXPECT_EQ(response.status, Status::kOk);
  ASSERT_EQ(response.asns.size(), 8u);
  EXPECT_EQ(response.asns.front(), 64500u);
  EXPECT_TRUE(std::is_sorted(response.asns.begin(), response.asns.end()));
}

TEST(Serve, ReachMatchesDirectTracerouteOnSameEpoch) {
  // Publish a real (small) world and compare the server's REACH answer
  // with a traceroute run directly on a private reader of the same
  // epoch: both stamp fresh host state off the frozen template, so the
  // AS paths must agree hop for hop.
  snapshot::EpochPublisher publisher(testfx::round_params());
  publisher.advance_to(publisher.world().start() + 60);
  snapshot::EpochRef epoch = publisher.publish();

  const topology::Asn from_as = epoch.world().client_as_a();
  const net::Ipv4Address dst = epoch.world().client_addr_b();

  TestServer ts;
  ASSERT_TRUE(ts.server->start());
  std::vector<core::AsScore> scores;
  core::AsScore s;
  s.asn = from_as;
  s.score = 1.0;
  scores.push_back(s);
  ts.feed->publish(util::Date::from_ymd(2021, 9, 23), scores, epoch);

  const auto direct = dataplane::tcp_traceroute(
      snapshot::make_reader(epoch)->plane(), from_as, dst, 80);

  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", ts.server->port()));
  Request request = make_request(Opcode::kReach, 7, from_as);
  request.dst = dst.value();
  request.port = 80;
  Response response;
  ASSERT_TRUE(client.call(request, response));
  EXPECT_EQ(response.status, Status::kOk);
  EXPECT_EQ(response.reached, direct.reached ? 1 : 0);
  ASSERT_EQ(response.hops.size(), direct.hops.size());
  for (std::size_t i = 0; i < direct.hops.size(); ++i) {
    EXPECT_EQ(response.hops[i], direct.hops[i]) << "hop " << i;
  }
  EXPECT_EQ(response.world_digest, 0u);  // digest only fills PING

  // An AS outside the graph is UNKNOWN_AS, not a crash.
  Request bogus = make_request(Opcode::kReach, 8, 4200000000u);
  ASSERT_TRUE(client.call(bogus, response));
  EXPECT_EQ(response.status, Status::kUnknownAs);
}

TEST(Serve, MalformedPayloadAnswersBadRequestAndOversizeCloses) {
  TestServer ts;
  ASSERT_TRUE(ts.server->start());
  ts.feed->publish(util::Date::from_ymd(2021, 7, 25), synthetic_scores(),
                   snapshot::EpochRef());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ts.server->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);

  // A framed-but-garbage payload gets a BAD_REQUEST answer.
  std::vector<std::uint8_t> wire;
  append_frame(wire, std::vector<std::uint8_t>{0xff, 0xff, 0xff});
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  FrameDecoder decoder(kMaxResponseFrame);
  std::optional<std::vector<std::uint8_t>> payload;
  std::uint8_t buf[512];
  while (!payload.has_value()) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    ASSERT_GT(n, 0) << "connection closed before the error response";
    decoder.append({buf, static_cast<std::size_t>(n)});
    payload = decoder.next();
  }
  const auto response = parse_response(*payload);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->opcode, Opcode::kNone);
  EXPECT_EQ(response->status, Status::kBadRequest);

  // A frame over the request cap poisons the connection: the server
  // must close it (after flushing earlier responses, here none).
  std::vector<std::uint8_t> oversize;
  append_frame(oversize, std::vector<std::uint8_t>(kMaxRequestFrame + 1, 0));
  ASSERT_EQ(::send(fd, oversize.data(), oversize.size(), 0),
            static_cast<ssize_t>(oversize.size()));
  ssize_t n = 0;
  do {
    n = ::recv(fd, buf, sizeof buf, 0);
  } while (n > 0);
  EXPECT_EQ(n, 0) << "server must close on an oversize frame";
  ::close(fd);
}

TEST(Serve, GracefulStopFlushesInFlightResponses) {
  TestServer ts;
  ASSERT_TRUE(ts.server->start());
  ts.feed->publish(util::Date::from_ymd(2021, 7, 25), synthetic_scores(),
                   snapshot::EpochRef());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ts.server->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);

  // Pipeline a burst without reading, wait until the server has
  // *answered* all of them (frames_served), then stop. The graceful
  // drain must flush every queued response before closing.
  constexpr std::uint64_t kBurst = 64;
  std::vector<std::uint8_t> wire;
  for (std::uint32_t i = 0; i < kBurst; ++i) {
    append_frame(wire, encode_request(make_request(Opcode::kScore, i, 64500)));
  }
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (ts.server->io().frames_served() < kBurst &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_GE(ts.server->io().frames_served(), kBurst);
  ts.server->stop();

  FrameDecoder decoder(kMaxResponseFrame);
  std::uint64_t got = 0;
  std::uint8_t buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    decoder.append({buf, static_cast<std::size_t>(n)});
    for (;;) {
      const auto payload = decoder.next();
      if (!payload.has_value()) break;
      const auto response = parse_response(*payload);
      ASSERT_TRUE(response.has_value());
      EXPECT_EQ(response->status, Status::kOk);
      ++got;
    }
  }
  EXPECT_EQ(got, kBurst) << "drain must flush every in-flight response";
  ::close(fd);
}

TEST(Serve, WarmStartServesRestoredStore) {
  // A two-frame archive, as a resumed runner leaves it.
  std::vector<std::pair<core::Asn, double>> rows;
  for (const core::AsScore& s : synthetic_scores()) {
    rows.emplace_back(s.asn, s.score);
  }
  const util::Date d1 = util::Date::from_ymd(2021, 7, 25);
  const analytics::RvlaFrame frames[] = {
      analytics::make_frame(d1, rows, false, {}),
      analytics::make_frame(d1 + 30, rows, false, {})};
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("rovista-serve-warm-" + std::to_string(::getpid()));
  std::string error;
  ASSERT_TRUE(
      analytics::RvlaWriter::create(dir.string(), frames, &error).has_value())
      << error;

  TestServer ts;
  ASSERT_TRUE(ts.feed->seed_from_archive(dir.string()));
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(ts.server->start());

  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", ts.server->port()));
  Response response;
  ASSERT_TRUE(client.call(make_request(Opcode::kScore, 1, 64500), response));
  EXPECT_EQ(response.status, Status::kOk);
  EXPECT_EQ(response.score_str, util::fmt_double(0.0, 2));
  EXPECT_EQ(response.vvp_count, 0u);  // counters not kept by the archive

  ASSERT_TRUE(
      client.call(make_request(Opcode::kTrajectory, 2, 64500), response));
  EXPECT_EQ(response.status, Status::kOk);
  EXPECT_EQ(response.trajectory.size(), 2u);

  // No live epoch yet: reachability reports NO_DATA, not garbage.
  ASSERT_TRUE(client.call(make_request(Opcode::kReach, 3, 64500), response));
  EXPECT_EQ(response.status, Status::kNoData);
}

TEST(Serve, LoadgenClosedLoopSmoke) {
  TestServer ts(/*workers=*/3);
  ASSERT_TRUE(ts.server->start());
  const util::Date d1 = util::Date::from_ymd(2021, 7, 25);
  ts.feed->publish(d1, synthetic_scores(), snapshot::EpochRef());

  LoadgenOptions options;
  options.port = ts.server->port();
  options.requests = 400;
  options.connections = 6;
  options.threads = 3;
  options.trajectory_fraction = 0.25;
  options.record = true;
  options.seed = 7;
  const LoadgenResult result = run_loadgen(options);

  EXPECT_EQ(result.sent, 400u);
  EXPECT_EQ(result.received, 400u);
  EXPECT_EQ(result.ok, 400u);
  EXPECT_EQ(result.transport_errors, 0u);
  EXPECT_EQ(result.min_epoch_sequence, 1u);
  EXPECT_EQ(result.max_epoch_sequence, 1u);
  EXPECT_GT(result.records.size(), 0u);
  for (const ScoreRecord& record : result.records) {
    EXPECT_EQ(record.date_days, d1.days_since_epoch());
  }
  EXPECT_GE(result.p99_ms, result.p50_ms);
}

}  // namespace

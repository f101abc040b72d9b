// Tests for the networked sharded deployment (paper §5.2): shard data
// servers, the front-end fan-out, and a full client session against a
// two-logical-server deployment where each logical server is a front-end
// over 2^top_bits shard servers.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>

#include "net/tcp.h"
#include "net/transport.h"
#include "pir/keyword.h"
#include "pir/packing.h"
#include "pir/two_server.h"
#include "util/rand.h"
#include "zltp/client.h"
#include "zltp/frontend.h"

namespace lw::zltp {
namespace {

ShardTopology SmallTopology() {
  ShardTopology t;
  t.domain_bits = 12;
  t.top_bits = 2;  // 4 shards
  t.record_size = 128;
  return t;
}

// A deployment: shard servers plus the loaded content, addressable by key.
struct Deployment {
  ShardTopology topology = SmallTopology();
  Bytes keyword_seed = Bytes(16, 0x77);
  std::vector<std::unique_ptr<ShardDataServer>> shards;
  pir::KeywordMapper mapper{Bytes(16, 0x77), 12};

  Deployment() {
    for (std::size_t s = 0; s < topology.shard_count(); ++s) {
      shards.push_back(std::make_unique<ShardDataServer>(topology, s));
    }
  }

  Status Publish(std::string_view key, ByteSpan payload) {
    const std::uint64_t index = mapper.IndexOf(key);
    LW_ASSIGN_OR_RETURN(
        const Bytes record,
        pir::PackRecord(mapper.Fingerprint(key), payload,
                        topology.record_size));
    const std::size_t shard =
        static_cast<std::size_t>(index & (topology.shard_count() - 1));
    return shards[shard]->Load(index, record);
  }

  // An in-memory link to shard `s`, served by a detached shard thread.
  std::unique_ptr<net::Transport> ServedLink(std::size_t s) {
    net::TransportPair pair = net::CreateInMemoryPair();
    shards[s]->ServeConnectionDetached(std::move(pair.b));
    return std::move(pair.a);
  }

  // Wires a fresh fan-out: one served link per shard.
  ShardFanout MakeFanout() {
    std::vector<std::unique_ptr<net::Transport>> links;
    for (std::size_t s = 0; s < shards.size(); ++s) {
      links.push_back(ServedLink(s));
    }
    return ShardFanout(topology, std::move(links));
  }

  // Fan-out options with a redial factory per shard that dials a fresh
  // served link.
  FanoutOptions Redialing() {
    FanoutOptions options;
    for (std::size_t s = 0; s < shards.size(); ++s) {
      options.redial.push_back(
          [this, s]() -> Result<std::unique_ptr<net::Transport>> {
            return ServedLink(s);
          });
    }
    return options;
  }
};

// Held shut by the test; CloseStallTransport::Close waits on it.
struct CloseGate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;

  void Open() {
    std::lock_guard<std::mutex> lock(mu);
    open = true;
    cv.notify_all();
  }
};

// A shard link whose sends fail and whose Close() stalls until the gate
// opens or a grace period passes. The fan-out link closes a failed stream
// before it reports that stream's ops as failed, so the stall widens the
// window in which the report of a link failure races the caller's next op.
class CloseStallTransport final : public net::Transport {
 public:
  CloseStallTransport(std::unique_ptr<net::Transport> inner,
                      std::shared_ptr<CloseGate> gate)
      : inner_(std::move(inner)), gate_(std::move(gate)) {}

  using Transport::Receive;
  using Transport::Send;

  Status Send(const net::Frame&, const net::Deadline&) override {
    return UnavailableError("injected send failure");
  }
  Result<net::Frame> Receive(const net::Deadline& deadline) override {
    return inner_->Receive(deadline);
  }
  void Close() override {
    {
      std::unique_lock<std::mutex> lock(gate_->mu);
      gate_->cv.wait_for(lock, std::chrono::milliseconds(200),
                         [this] { return gate_->open; });
    }
    inner_->Close();
  }

 private:
  std::unique_ptr<net::Transport> inner_;
  std::shared_ptr<CloseGate> gate_;
};

TEST(ShardDataServer, LoadRejectsForeignIndices) {
  const ShardTopology topology = SmallTopology();
  ShardDataServer shard(topology, /*shard_index=*/1);
  const Bytes record(topology.record_size, 1);
  // Index 5 ≡ 1 (mod 4): ours. Index 6 ≡ 2: foreign.
  EXPECT_TRUE(shard.Load(5, record).ok());
  EXPECT_FALSE(shard.Load(6, record).ok());
  EXPECT_EQ(shard.record_count(), 1u);
}

TEST(ShardDataServer, AnswerRejectsWrongDepth) {
  const ShardTopology topology = SmallTopology();
  ShardDataServer shard(topology, 0);
  const dpf::KeyPair pair = dpf::Generate(1, 12);
  // A sub-key with the wrong remaining depth.
  const auto bad = dpf::SplitForShards(pair.key0, 1);  // depth 11, not 10
  EXPECT_FALSE(shard.Answer(bad[0]).ok());
}

TEST(ShardFanout, MatchesUnshardedAnswer) {
  Deployment deployment;
  Rng rng(4);
  // Publish some records and mirror them into a reference single DB.
  pir::BlobDatabase reference(deployment.topology.domain_bits,
                              deployment.topology.record_size);
  for (int i = 0; i < 40; ++i) {
    const std::string key = "page-" + std::to_string(i);
    const Bytes payload = ToBytes("content-" + std::to_string(i));
    if (!deployment.Publish(key, payload).ok()) continue;
    const std::uint64_t index = deployment.mapper.IndexOf(key);
    const Bytes record =
        pir::PackRecord(deployment.mapper.Fingerprint(key), payload,
                        deployment.topology.record_size)
            .value();
    ASSERT_TRUE(reference.Upsert(index, record).ok());
  }

  ShardFanout fanout = deployment.MakeFanout();
  for (int t = 0; t < 10; ++t) {
    const std::uint64_t target = rng.UniformInt(1 << 12);
    const pir::QueryKeys q = pir::MakeIndexQuery(target, 12);
    auto sharded = fanout.Answer(q.key0);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    Bytes direct(deployment.topology.record_size);
    reference.Answer(dpf::EvalFull(q.key0), direct);
    EXPECT_EQ(*sharded, direct) << "target " << target;
  }
}

TEST(ShardFanout, RejectsWrongDomain) {
  Deployment deployment;
  ShardFanout fanout = deployment.MakeFanout();
  const pir::QueryKeys q = pir::MakeIndexQuery(0, 10);  // wrong domain
  EXPECT_FALSE(fanout.Answer(q.key0).ok());
}

TEST(ShardFanout, OpIssuedAfterReportedLinkFailureRidesTheRedial) {
  Deployment deployment;
  ASSERT_TRUE(deployment.Publish("k", ToBytes("v")).ok());
  const pir::QueryKeys q =
      pir::MakeIndexQuery(deployment.mapper.IndexOf("k"), 12);
  Result<Bytes> expected = deployment.MakeFanout().Answer(q.key1);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  auto gate = std::make_shared<CloseGate>();
  std::vector<std::unique_ptr<net::Transport>> links;
  for (std::size_t s = 0; s < deployment.shards.size(); ++s) {
    links.push_back(deployment.ServedLink(s));
  }
  links[1] = std::make_unique<CloseStallTransport>(std::move(links[1]), gate);
  ShardFanout fanout(deployment.topology, std::move(links),
                     deployment.Redialing());

  // Shard 1's send fails, so the op fails with its link.
  const Result<Bytes> failed = fanout.Answer(q.key0);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);

  // The failure has been reported. The next op is issued while the dead
  // stream may still be closing; it belongs to the redialed link, so the
  // old stream's teardown must not fail it with the old error.
  std::promise<Result<Bytes>> next;
  fanout.AnswerAsync(q.key1, [&next](Result<Bytes> r) {
    next.set_value(std::move(r));
  });
  gate->Open();
  const Result<Bytes> after = next.get_future().get();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(*after, *expected);
}

TEST(FrontEnd, FullClientSessionAgainstShardedDeployment) {
  // Two logical servers (role 0/1), each a front-end over ITS OWN set of
  // shard data servers — the complete §5.2 topology, client-side unchanged.
  Deployment replica0, replica1;
  std::vector<std::string> published;
  for (int i = 0; i < 30; ++i) {
    const std::string key = "article/" + std::to_string(i);
    const Bytes payload = ToBytes("text " + std::to_string(i));
    const Status s0 = replica0.Publish(key, payload);
    const Status s1 = replica1.Publish(key, payload);
    ASSERT_EQ(s0.ok(), s1.ok());
    if (s0.ok()) published.push_back(key);
  }
  ASSERT_GT(published.size(), 25u);

  FrontEndServer frontend0(0, replica0.keyword_seed, replica0.MakeFanout());
  FrontEndServer frontend1(1, replica1.keyword_seed, replica1.MakeFanout());

  net::TransportPair c0 = net::CreateInMemoryPair();
  net::TransportPair c1 = net::CreateInMemoryPair();
  frontend0.ServeConnectionDetached(std::move(c0.b));
  frontend1.ServeConnectionDetached(std::move(c1.b));

  auto session = PirSession::Establish(
      EstablishOptions::FromTransports(
      std::move(c0.a), std::move(c1.a)));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(session->domain_bits(), 12);

  for (const std::string& key : published) {
    auto value = session->PrivateGet(key);
    ASSERT_TRUE(value.ok()) << key << ": " << value.status().ToString();
    EXPECT_EQ(ToString(*value),
              "text " + key.substr(std::string("article/").size()));
  }
  auto missing = session->PrivateGet("never-published");
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  session->Close();
}

TEST(FrontEnd, RejectsEnclaveOnlyClient) {
  Deployment deployment;
  FrontEndServer frontend(0, deployment.keyword_seed,
                          deployment.MakeFanout());
  net::TransportPair pair = net::CreateInMemoryPair();
  frontend.ServeConnectionDetached(std::move(pair.b));

  ClientHello hello;
  hello.supported_modes = {Mode::kEnclave};
  ASSERT_TRUE(pair.a->Send(Encode(hello)).ok());
  auto reply = pair.a->Receive();
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(DecodeError(*reply).ok());
}

TEST(FrontEnd, ShardsOverTcp) {
  // The shard links can be real sockets too.
  Deployment deployment;
  ASSERT_TRUE(deployment.Publish("k", ToBytes("v")).ok());

  std::vector<std::unique_ptr<net::Transport>> links;
  std::vector<net::TcpListener> listeners;
  for (std::size_t s = 0; s < deployment.topology.shard_count(); ++s) {
    auto listener = net::TcpListener::Listen(0);
    ASSERT_TRUE(listener.ok());
    listeners.push_back(std::move(*listener));
  }
  std::thread acceptor([&] {
    for (std::size_t s = 0; s < listeners.size(); ++s) {
      auto conn = listeners[s].Accept();
      ASSERT_TRUE(conn.ok());
      deployment.shards[s]->ServeConnectionDetached(std::move(*conn));
    }
  });
  for (auto& listener : listeners) {
    auto conn = net::TcpConnect("127.0.0.1", listener.bound_port());
    ASSERT_TRUE(conn.ok());
    links.push_back(std::move(*conn));
  }
  acceptor.join();

  ShardFanout fanout(deployment.topology, std::move(links));
  const std::uint64_t index = deployment.mapper.IndexOf("k");
  const pir::QueryKeys q = pir::MakeIndexQuery(index, 12);
  auto a0 = fanout.Answer(q.key0);
  ASSERT_TRUE(a0.ok());
  auto a1 = fanout.Answer(q.key1);
  ASSERT_TRUE(a1.ok());
  const Bytes record = pir::CombineAnswers(*a0, *a1).value();
  auto un = pir::UnpackRecord(record);
  ASSERT_TRUE(un.ok());
  EXPECT_EQ(ToString(un->payload), "v");
}

}  // namespace
}  // namespace lw::zltp

// Tests for the program facts the fuzzer derives from def/use alone: the
// corpus's duplicate check (a program equal to a queued entry once its
// snapshot marker and its trailing fault plans are stripped is rejected),
// the mutator's live-value binding map (Program::LiveValues) and trim's
// removal cones (an op goes together with every op using its outputs).

#include <gtest/gtest.h>

#include <memory>

#include "src/fuzz/corpus.h"
#include "src/fuzz/engine.h"
#include "src/fuzz/trim.h"
#include "src/spec/builder.h"
#include "src/spec/fault_plan.h"
#include "src/spec/program.h"
#include "src/spec/spec.h"
#include "src/spec/verify.h"

namespace nyx {
namespace {

std::vector<uint16_t> LiveValues(const Program& p, const Spec& spec, size_t at, int edge_type) {
  spec::ValueTable table;
  std::vector<uint16_t> live = {0xffff};  // stale contents must be replaced
  p.LiveValues(spec, at, edge_type, table, live);
  return live;
}

TEST(AnalyzeTest, CorpusRejectsProgramEqualOnceMarkerStripped) {
  Spec spec = Spec::GenericNetwork();
  Corpus corpus(&spec);

  Builder b(spec);
  ValueRef con = b.Connection();
  b.Packet(con, "USER a\r\n");
  b.Packet(con, "PASS b\r\n");
  const Program plain = *b.Build();
  EXPECT_TRUE(corpus.Add(plain, 1000, 2, 0.0));

  // The same ops with the marker after either packet: the corpus stores
  // entries marker-stripped, so both are the queued entry again.
  for (size_t packet = 0; packet < 2; packet++) {
    Program marked = plain;
    marked.InsertSnapshotAfterPacket(spec, packet);
    ASSERT_TRUE(marked.SnapshotMarkerPos().has_value());
    ASSERT_NE(marked.OpsHash(marked.ops.size()), plain.OpsHash(plain.ops.size()));
    EXPECT_FALSE(corpus.Add(std::move(marked), 1000, 2, 0.0)) << "marker after packet " << packet;
  }
  EXPECT_EQ(corpus.size(), 1u);
  EXPECT_EQ(corpus.corpus_dupes(), 2u);

  // A program that differs in one payload byte still gets in.
  Program other = plain;
  other.ops[2].data.back() = '!';
  EXPECT_TRUE(corpus.Add(std::move(other), 1000, 2, 0.0));
  EXPECT_EQ(corpus.size(), 2u);
  EXPECT_EQ(corpus.corpus_dupes(), 2u);
}

TEST(AnalyzeTest, CorpusRejectsProgramEqualUpToTrailingFaults) {
  Spec spec = Spec::GenericNetwork();
  Corpus corpus(&spec);
  const Bytes plan = [] {
    FaultPlan p;
    p.kind = FaultKind::kTimeout;
    p.count = 8;
    p.arg = 4;
    return p.Encode();
  }();

  Builder base(spec);
  ValueRef con = base.Connection();
  base.Packet(con, "USER a\r\n");
  base.Packet(con, "QUIT\r\n");
  EXPECT_TRUE(corpus.Add(*base.Build(), 1000, 2, 0.0));

  // A plan armed after the last packet is never consulted: duplicate.
  Builder trailing(spec);
  con = trailing.Connection();
  trailing.Packet(con, "USER a\r\n");
  trailing.Packet(con, "QUIT\r\n");
  ASSERT_TRUE(trailing.Node("fault", {con}, plan).has_value());
  ASSERT_TRUE(trailing.Node("fault", {con}, plan).has_value());
  EXPECT_FALSE(corpus.Add(*trailing.Build(), 1000, 2, 0.0));
  EXPECT_EQ(corpus.corpus_dupes(), 1u);

  // The same plan before the last packet fires on it: a new entry.
  Builder mid(spec);
  con = mid.Connection();
  mid.Packet(con, "USER a\r\n");
  ASSERT_TRUE(mid.Node("fault", {con}, plan).has_value());
  mid.Packet(con, "QUIT\r\n");
  EXPECT_TRUE(corpus.Add(*mid.Build(), 1000, 2, 0.0));
  EXPECT_EQ(corpus.size(), 2u);
  EXPECT_EQ(corpus.corpus_dupes(), 1u);
}

TEST(AnalyzeTest, LiveValuesRespectCloseAndPosition) {
  Spec spec = Spec::MultiConnection();
  Builder b(spec);
  ValueRef c1 = b.Connection();  // op 0 -> value 0
  b.Packet(c1, "a");             // op 1
  ValueRef c2 = b.Connection();  // op 2 -> value 1
  b.Close(c1);                   // op 3
  b.Packet(c2, "b");             // op 4
  Program p = *b.Build();

  const int conn_edge = 0;
  // Before op 2 only c1 exists; before op 4 (post-close) only c2 is live.
  EXPECT_EQ(LiveValues(p, spec, 2, conn_edge), (std::vector<uint16_t>{0}));
  EXPECT_EQ(LiveValues(p, spec, 3, conn_edge), (std::vector<uint16_t>{0, 1}));
  EXPECT_EQ(LiveValues(p, spec, 4, conn_edge), (std::vector<uint16_t>{1}));
  // End-of-program query (and past it) and an unknown edge type.
  EXPECT_EQ(LiveValues(p, spec, p.ops.size(), conn_edge), (std::vector<uint16_t>{1}));
  EXPECT_EQ(LiveValues(p, spec, p.ops.size() + 5, conn_edge), (std::vector<uint16_t>{1}));
  EXPECT_TRUE(LiveValues(p, spec, 4, 99).empty());
  // A marker produces and consumes nothing.
  p.InsertSnapshotAfterPacket(spec, 0);
  EXPECT_EQ(LiveValues(p, spec, p.ops.size(), conn_edge), (std::vector<uint16_t>{1}));
}

TEST(AnalyzeTest, LiveValuesInTheMiddleOfAMutation) {
  // Two edge types, so a consume can name a value of the wrong type.
  Spec spec;
  const int conn = spec.AddEdgeType("conn");
  const int session = spec.AddEdgeType("session");
  NodeTypeDef connect;
  connect.name = "connect";
  connect.semantic = NodeSemantic::kConnection;
  connect.outputs = {conn};
  const uint8_t kConnect = static_cast<uint8_t>(spec.AddNodeType(connect));
  NodeTypeDef login;
  login.name = "login";
  login.borrows = {conn};
  login.outputs = {session};
  const uint8_t kLogin = static_cast<uint8_t>(spec.AddNodeType(login));
  NodeTypeDef logout;
  logout.name = "logout";
  logout.consumes = {session};
  const uint8_t kLogout = static_cast<uint8_t>(spec.AddNodeType(logout));

  auto op = [](uint8_t node_type, std::vector<uint16_t> args) {
    Op o;
    o.node_type = node_type;
    o.args = std::move(args);
    return o;
  };
  Program p;
  p.ops.push_back(op(kConnect, {}));       // value 0 (conn)
  p.ops.push_back(op(kLogin, {0}));        // value 1 (session)
  p.ops.push_back(op(kLogout, {1, 1}));    // wrong arity: consumes nothing
  p.ops.push_back(op(kConnect, {}));       // value 2 (conn)
  p.ops.push_back(op(kLogout, {7}));       // id not produced yet: nothing dies
  p.ops.push_back(op(kLogout, {0}));       // consumes a conn as a session
  ASSERT_FALSE(spec::Verify(p, spec).ok());

  EXPECT_EQ(LiveValues(p, spec, 3, session), (std::vector<uint16_t>{1}));
  EXPECT_EQ(LiveValues(p, spec, 5, conn), (std::vector<uint16_t>{0, 2}));
  // The ill-typed consume still kills value 0; value 1 outlived the
  // wrong-arity logout.
  EXPECT_EQ(LiveValues(p, spec, p.ops.size(), conn), (std::vector<uint16_t>{2}));
  EXPECT_EQ(LiveValues(p, spec, p.ops.size(), session), (std::vector<uint16_t>{1}));
}

// A stream server built so that only a whole connection can be trimmed: a
// "k" packet covers one site when it is the only open connection and
// another when others are open, and a connection closed before sending
// anything covers a third. Other payloads cover nothing.
class ConeTarget final : public Target {
 public:
  static constexpr uint16_t kPort = 7;

  TargetInfo info() const override {
    TargetInfo ti;
    ti.name = "cone";
    ti.port = kPort;
    ti.transport = SockKind::kStream;
    ti.state_bytes = sizeof(State);
    return ti;
  }
  void Init(GuestContext& ctx) override {
    State* st = ctx.State<State>();
    *st = State{};
    st->listener = ctx.net().Socket(SockKind::kStream);
    ctx.net().Bind(st->listener, kPort);
    ctx.net().Listen(st->listener, 4);
  }
  void Step(GuestContext& ctx) override {
    State* st = ctx.State<State>();
    int fd;
    while (st->conns < 4 && (fd = ctx.net().Accept(st->listener)) >= 0) {
      st->conn[st->conns++] = Conn{fd, 1, 0};
    }
    for (uint32_t c = 0; c < st->conns; c++) {
      Conn& conn = st->conn[c];
      uint8_t buf[8];
      int n;
      while (conn.open != 0 && (n = ctx.net().Recv(conn.fd, buf, sizeof(buf))) != kErrAgain) {
        if (n <= 0) {
          if (conn.got_data == 0) {
            ctx.Cov(50);
          }
          conn.open = 0;
        } else {
          conn.got_data = 1;
          if (buf[0] == 'k') {
            ctx.Cov(OpenCount(*st) == 1 ? 1 : 2);
          }
        }
      }
    }
  }

 private:
  struct Conn {
    int fd;
    uint8_t open;
    uint8_t got_data;
  };
  struct State {
    int listener;
    uint32_t conns;
    Conn conn[4];
  };
  static uint32_t OpenCount(const State& st) {
    uint32_t open = 0;
    for (uint32_t c = 0; c < st.conns; c++) {
      open += st.conn[c].open;
    }
    return open;
  }
};

TEST(AnalyzeTest, RemovalConeCoversTransitiveUses) {
  Spec spec = Spec::MultiConnection();
  Builder b(spec);
  ValueRef c2 = b.Connection();  // op 0 -> value 0
  ValueRef c1 = b.Connection();  // op 1 -> value 1
  b.Packet(c2, "x");             // op 2
  b.Close(c2);                   // op 3
  b.Packet(c1, "k");             // op 4
  const Program p = *b.Build();

  EngineConfig cfg;
  cfg.vm.mem_pages = 128;
  NyxEngine engine(cfg, [] { return std::unique_ptr<Target>(new ConeTarget()); }, spec);
  engine.Boot();

  // Dropping c2's close leaves it open at the "k", dropping its packet
  // makes the close cover site 50, and dropping c1 (cone {1, 4}) loses the
  // "k": only c2's whole cone {0, 2, 3} goes, and in one probe. The sweep
  // is one reference probe, one per op (4, 3, 2, 1, 0) in the first pass
  // and one per op of the two that stay in the second.
  TrimStats stats;
  const Program trimmed = TrimProgram(engine, spec, p, &stats);
  EXPECT_EQ(stats.ops_before, 5u);
  EXPECT_EQ(stats.ops_after, 2u);
  EXPECT_EQ(stats.probe_execs, 1u + 5u + 2u);

  // c1 stays because its use stays, renumbered 1 -> 0.
  ASSERT_EQ(trimmed.ops.size(), 2u);
  EXPECT_TRUE(spec::Verify(trimmed, spec).ok());
  EXPECT_EQ(trimmed.ops[0].node_type, p.ops[1].node_type);
  EXPECT_EQ(trimmed.ops[1].node_type, p.ops[4].node_type);
  EXPECT_EQ(trimmed.ops[1].args, (std::vector<uint16_t>{0}));
  EXPECT_EQ(trimmed.ops[1].data, p.ops[4].data);
}

}  // namespace
}  // namespace nyx

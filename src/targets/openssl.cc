// openssl (s_server) analogue: TLS 1.2 record and handshake layer.
//
// The deepest binary parser in the suite (9744 branches for AFLNet in
// Table 2): record framing, ClientHello with cipher-suite and extension
// parsing (SNI, ALPN, supported groups, session tickets), alert handling
// and renegotiation limits. No seeded bug.

#include <cstring>

#include "src/common/bytes.h"
#include "src/common/check.h"
#include "src/targets/registry.h"
#include "src/targets/textproto.h"

namespace nyx {
namespace {

constexpr uint32_t kSite = 11000;
constexpr uint16_t kPort = 4433;
constexpr uint64_t kStartupNs = 60'000'000;
constexpr uint64_t kRequestNs = 500'000;
constexpr uint64_t kAflnetExtraNs = 3'200'000'000;

constexpr uint8_t kRecCcs = 20;
constexpr uint8_t kRecAlert = 21;
constexpr uint8_t kRecHandshake = 22;
constexpr uint8_t kRecAppData = 23;
// The longest handshake body the server sends (its Certificate).
constexpr uint32_t kMaxHandshakeBody = 96;

struct State {
  int listener;
  int conn;
  uint8_t hs_state;  // 0 start, 1 hello-done, 2 keyed, 3 finished
  uint8_t renegs;
  uint8_t sni_seen;
  uint8_t alpn_h2;
  uint8_t buf[4096];
  uint32_t buf_len;
  uint32_t records;
};

class OpenSsl final : public Target {
 public:
  TargetInfo info() const override {
    TargetInfo ti;
    ti.name = "openssl";
    ti.port = kPort;
    ti.split = SplitStrategy::kSegment;
    ti.desock_compatible = true;
    ti.startup_ns = kStartupNs;
    ti.request_ns = kRequestNs;
    ti.aflnet_extra_ns = kAflnetExtraNs;
    ti.startup_dirty_pages = 20;
    ti.state_bytes = sizeof(State);
    return ti;
  }

  void Init(GuestContext& ctx) override {
    auto* st = ctx.State<State>();
    memset(st, 0, sizeof(*st));
    st->conn = -1;
    st->listener = ctx.net().Socket(SockKind::kStream);
    ctx.net().Bind(st->listener, kPort);
    ctx.net().Listen(st->listener, 4);
    ctx.TouchScratch(20, 0xcc);
    ctx.Charge(kStartupNs);
  }

  void Step(GuestContext& ctx) override {
    auto* st = ctx.State<State>();
    for (;;) {
      if (ctx.crash().crashed) {
        return;
      }
      if (st->conn < 0) {
        const int fd = ctx.net().Accept(st->listener);
        if (fd < 0) {
          return;
        }
        ctx.Cov(kSite + 0);
        st->conn = fd;
        st->hs_state = 0;
        st->renegs = 0;
        st->buf_len = 0;
      }
      uint8_t chunk[512];
      const int n = ctx.net().Recv(st->conn, chunk, sizeof(chunk));
      if (n == kErrAgain) {
        return;
      }
      if (n <= 0) {
        ctx.Cov(kSite + 1);
        ctx.net().Close(st->conn);
        st->conn = -1;
        continue;
      }
      const uint32_t space = sizeof(st->buf) - st->buf_len;
      const uint32_t take = static_cast<uint32_t>(n) < space ? static_cast<uint32_t>(n) : space;
      memcpy(st->buf + st->buf_len, chunk, take);
      st->buf_len += take;
      Drain(ctx, st);
    }
  }

 private:
  void Drain(GuestContext& ctx, State* st) {
    while (st->conn >= 0 && !ctx.crash().crashed) {
      if (st->buf_len < 5) {
        return;
      }
      const uint8_t rec_type = st->buf[0];
      const uint16_t version = static_cast<uint16_t>(st->buf[1] << 8 | st->buf[2]);
      const uint16_t rec_len = static_cast<uint16_t>(st->buf[3] << 8 | st->buf[4]);
      if (ctx.CovBranch(rec_len > 16384 + 2048, kSite + 10)) {
        Alert(ctx, st, 22);  // record_overflow
        return;
      }
      if (ctx.CovBranch((version >> 8) != 3, kSite + 12)) {
        Alert(ctx, st, 70);  // protocol_version
        return;
      }
      if (5u + rec_len > st->buf_len) {
        return;  // incomplete record
      }
      st->records++;
      ctx.Charge(kRequestNs + ctx.cost().per_byte_ns * rec_len);
      HandleRecord(ctx, st, rec_type, st->buf + 5, rec_len);
      if (st->conn < 0) {
        return;
      }
      memmove(st->buf, st->buf + 5 + rec_len, st->buf_len - 5 - rec_len);
      st->buf_len -= 5 + rec_len;
    }
  }

  void HandleRecord(GuestContext& ctx, State* st, uint8_t type, const uint8_t* body,
                    uint32_t len) {
    switch (type) {
      case kRecHandshake:
        ctx.Cov(kSite + 14);
        HandleHandshake(ctx, st, body, len);
        return;
      case kRecCcs:
        ctx.Cov(kSite + 16);
        if (ctx.CovBranch(len != 1 || body[0] != 1, kSite + 18)) {
          Alert(ctx, st, 50);
          return;
        }
        if (ctx.CovBranch(st->hs_state == 2, kSite + 20)) {
          ctx.Cov(kSite + 22);
        } else {
          Alert(ctx, st, 10);  // unexpected_message
        }
        return;
      case kRecAlert:
        ctx.Cov(kSite + 24);
        if (ctx.CovBranch(len >= 2, kSite + 26)) {
          if (ctx.CovBranch(body[0] == 2, kSite + 28)) {
            ctx.net().Close(st->conn);  // fatal: tear down
            st->conn = -1;
          } else if (ctx.CovBranch(body[1] == 0, kSite + 30)) {
            ctx.Cov(kSite + 32);  // close_notify
            ctx.net().Close(st->conn);
            st->conn = -1;
          }
        }
        return;
      case kRecAppData:
        ctx.Cov(kSite + 34);
        if (ctx.CovBranch(st->hs_state != 3, kSite + 36)) {
          Alert(ctx, st, 10);
          return;
        }
        // Echo decrypted plaintext (s_server -www style).
        ctx.net().Send(st->conn, body, len);
        return;
      default:
        ctx.Cov(kSite + 38);
        Alert(ctx, st, 10);
        return;
    }
  }

  void HandleHandshake(GuestContext& ctx, State* st, const uint8_t* msg, uint32_t len) {
    if (ctx.CovBranch(len < 4, kSite + 40)) {
      Alert(ctx, st, 50);
      return;
    }
    const uint8_t hs_type = msg[0];
    const uint32_t hs_len =
        static_cast<uint32_t>(msg[1]) << 16 | static_cast<uint32_t>(msg[2]) << 8 | msg[3];
    if (ctx.CovBranch(4 + hs_len > len, kSite + 42)) {
      Alert(ctx, st, 50);
      return;
    }
    const uint8_t* body = msg + 4;

    switch (hs_type) {
      case 1: {  // ClientHello
        ctx.Cov(kSite + 44);
        if (ctx.CovBranch(st->hs_state == 3, kSite + 46)) {
          // Renegotiation.
          st->renegs++;
          if (ctx.CovBranch(st->renegs > 3, kSite + 48)) {
            Alert(ctx, st, 100);  // no_renegotiation
            return;
          }
        }
        if (ctx.CovBranch(hs_len < 35, kSite + 50)) {
          Alert(ctx, st, 50);
          return;
        }
        const uint16_t client_version = static_cast<uint16_t>(body[0] << 8 | body[1]);
        if (ctx.CovBranch(client_version < 0x0301, kSite + 52)) {
          Alert(ctx, st, 70);
          return;
        }
        if (ctx.CovBranch(client_version >= 0x0304, kSite + 54)) {
          ctx.Cov(kSite + 56);  // TLS1.3-capable hello
        }
        uint32_t p = 34;  // skip version + random
        const uint8_t sid_len = body[p];
        p += 1 + sid_len;
        if (ctx.CovBranch(sid_len > 32 || p + 2 > hs_len, kSite + 58)) {
          Alert(ctx, st, 47);
          return;
        }
        if (ctx.CovBranch(sid_len > 0, kSite + 60)) {
          ctx.Cov(kSite + 62);  // resumption attempt
        }
        // Cipher suites.
        const uint16_t cs_len = static_cast<uint16_t>(body[p] << 8 | body[p + 1]);
        p += 2;
        if (ctx.CovBranch(cs_len == 0 || cs_len % 2 != 0 || p + cs_len > hs_len, kSite + 64)) {
          Alert(ctx, st, 47);
          return;
        }
        bool has_supported = false;
        for (uint32_t i = 0; i + 1 < cs_len; i += 2) {
          const uint16_t suite = static_cast<uint16_t>(body[p + i] << 8 | body[p + i + 1]);
          if (suite == 0xc02f || suite == 0xc030 || suite == 0x009e) {
            has_supported = true;
          }
          if (suite == 0x00ff) {
            ctx.Cov(kSite + 66);  // EMPTY_RENEGOTIATION_INFO_SCSV
          }
        }
        p += cs_len;
        if (ctx.CovBranch(!has_supported, kSite + 68)) {
          Alert(ctx, st, 40);  // handshake_failure
          return;
        }
        // Compression methods.
        if (ctx.CovBranch(p >= hs_len, kSite + 70)) {
          Alert(ctx, st, 50);
          return;
        }
        const uint8_t comp_len = body[p];
        p += 1 + comp_len;
        // Extensions (optional).
        if (ctx.CovBranch(p + 2 <= hs_len, kSite + 72)) {
          const uint16_t ext_total = static_cast<uint16_t>(body[p] << 8 | body[p + 1]);
          p += 2;
          uint32_t ext_end = p + ext_total;
          if (ctx.CovBranch(ext_end > hs_len, kSite + 74)) {
            Alert(ctx, st, 50);
            return;
          }
          while (p + 4 <= ext_end) {
            const uint16_t ext_type = static_cast<uint16_t>(body[p] << 8 | body[p + 1]);
            const uint16_t ext_len = static_cast<uint16_t>(body[p + 2] << 8 | body[p + 3]);
            p += 4;
            if (ctx.CovBranch(p + ext_len > ext_end, kSite + 76)) {
              Alert(ctx, st, 50);
              return;
            }
            switch (ext_type) {
              case 0:  // SNI
                ctx.Cov(kSite + 78);
                if (ctx.CovBranch(ext_len >= 5 && body[p + 2] == 0, kSite + 80)) {
                  st->sni_seen = 1;
                }
                break;
              case 16: {  // ALPN
                ctx.Cov(kSite + 82);
                for (uint32_t i = 0; i + 2 < ext_len; i++) {
                  if (body[p + i] == 2 && body[p + i + 1] == 'h' && body[p + i + 2] == '2') {
                    ctx.Cov(kSite + 84);
                    st->alpn_h2 = 1;
                  }
                }
                break;
              }
              case 10:  // supported_groups
                ctx.Cov(kSite + 86);
                break;
              case 13:  // signature_algorithms
                ctx.Cov(kSite + 88);
                break;
              case 35:  // session_ticket
                ctx.Cov(kSite + 90);
                break;
              case 43:  // supported_versions
                ctx.Cov(kSite + 92);
                break;
              default:
                ctx.Cov(kSite + 94);
                break;
            }
            p += ext_len;
          }
        }
        st->hs_state = 1;
        SendHandshake(ctx, st, 2, 70);   // ServerHello
        SendHandshake(ctx, st, 11, 96);  // Certificate
        SendHandshake(ctx, st, 14, 0);   // ServerHelloDone
        return;
      }
      case 16:  // ClientKeyExchange
        ctx.Cov(kSite + 96);
        if (ctx.CovBranch(st->hs_state != 1, kSite + 98)) {
          Alert(ctx, st, 10);
          return;
        }
        st->hs_state = 2;
        return;
      case 20:  // Finished
        ctx.Cov(kSite + 100);
        if (ctx.CovBranch(st->hs_state != 2, kSite + 102)) {
          Alert(ctx, st, 10);
          return;
        }
        st->hs_state = 3;
        {
          uint8_t ccs[6] = {kRecCcs, 3, 3, 0, 1, 1};
          ctx.net().Send(st->conn, ccs, sizeof(ccs));
        }
        SendHandshake(ctx, st, 20, 12);  // server Finished
        return;
      case 0:  // HelloRequest from a client is bogus
        ctx.Cov(kSite + 104);
        Alert(ctx, st, 10);
        return;
      default:
        ctx.Cov(kSite + 106);
        Alert(ctx, st, 10);
        return;
    }
  }

  // One handshake record: record header, handshake header, zero body.
  void SendHandshake(GuestContext& ctx, State* st, uint8_t type, uint32_t body_len) {
    NYX_DCHECK_LE(body_len, kMaxHandshakeBody);
    const uint32_t msg_len = 4 + body_len;
    uint8_t rec[5 + 4 + kMaxHandshakeBody] = {
        kRecHandshake, 3, 3, static_cast<uint8_t>(msg_len >> 8), static_cast<uint8_t>(msg_len),
        type, 0, static_cast<uint8_t>(body_len >> 8), static_cast<uint8_t>(body_len)};
    ctx.net().Send(st->conn, rec, 5 + msg_len);
  }

  void Alert(GuestContext& ctx, State* st, uint8_t desc) {
    uint8_t alert[7] = {kRecAlert, 3, 3, 0, 2, 2, desc};
    ctx.net().Send(st->conn, alert, sizeof(alert));
    ctx.net().Close(st->conn);
    st->conn = -1;
  }
};

}  // namespace

std::unique_ptr<Target> MakeOpenSsl() { return std::make_unique<OpenSsl>(); }

}  // namespace nyx

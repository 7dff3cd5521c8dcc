// openssh analogue: SSH-2.0 transport layer.
//
// Version-string exchange followed by binary packets
// [len u32][padlen u8][type u8][payload][padding]; KEXINIT name-list
// parsing, service requests and a userauth state machine. No seeded bug.

#include <cstring>

#include "src/common/bytes.h"
#include "src/common/check.h"
#include "src/targets/registry.h"
#include "src/targets/textproto.h"

namespace nyx {
namespace {

constexpr uint32_t kSite = 10000;
constexpr uint16_t kPort = 2222;
constexpr uint64_t kStartupNs = 8'000'000;
constexpr uint64_t kRequestNs = 1'800'000;
constexpr uint64_t kAflnetExtraNs = 27'000'000;

constexpr uint8_t kMsgKexInit = 20;
constexpr uint8_t kMsgNewKeys = 21;
// The longest packet body the server sends (its KEXDH_REPLY).
constexpr uint32_t kMaxPacketBody = 96;
constexpr uint8_t kMsgKexDhInit = 30;
constexpr uint8_t kMsgServiceRequest = 5;
constexpr uint8_t kMsgUserauthRequest = 50;
constexpr uint8_t kMsgDisconnect = 1;
constexpr uint8_t kMsgIgnore = 2;
constexpr uint8_t kMsgDebug = 4;

struct State {
  int listener;
  int conn;
  uint8_t got_version;
  uint8_t kex_done;
  uint8_t keys_live;
  uint8_t service_ok;
  uint8_t auth_failures;
  uint8_t buf[2048];
  uint32_t buf_len;
};

class OpenSsh final : public Target {
 public:
  TargetInfo info() const override {
    TargetInfo ti;
    ti.name = "openssh";
    ti.port = kPort;
    ti.split = SplitStrategy::kLengthPrefixBe32;
    ti.desock_compatible = true;
    ti.startup_ns = kStartupNs;
    ti.request_ns = kRequestNs;
    ti.aflnet_extra_ns = kAflnetExtraNs;
    ti.startup_dirty_pages = 8;
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
    ctx.TouchScratch(8, 0xbb);
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
        st->got_version = 0;
        st->kex_done = 0;
        st->keys_live = 0;
        st->service_ok = 0;
        st->auth_failures = 0;
        st->buf_len = 0;
        Reply(ctx, fd, "SSH-2.0-OpenSSH_9.0\r\n");
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
  void Consume(State* st, uint32_t n) {
    memmove(st->buf, st->buf + n, st->buf_len - n);
    st->buf_len -= n;
  }

  void Drain(GuestContext& ctx, State* st) {
    // Version exchange first.
    if (!st->got_version) {
      for (uint32_t i = 0; i < st->buf_len; i++) {
        if (st->buf[i] == '\n') {
          if (ctx.CovBranch(i >= 7 && memcmp(st->buf, "SSH-2.0", 7) == 0, kSite + 10)) {
            st->got_version = 1;
            ctx.Cov(kSite + 12);
          } else if (ctx.CovBranch(i >= 7 && memcmp(st->buf, "SSH-1.", 6) == 0, kSite + 14)) {
            Reply(ctx, st->conn, "Protocol major versions differ.\r\n");
            Disconnect(ctx, st);
            return;
          } else {
            Disconnect(ctx, st);
            return;
          }
          Consume(st, i + 1);
          break;
        }
      }
      if (!st->got_version) {
        if (ctx.CovBranch(st->buf_len >= 255, kSite + 16)) {
          Disconnect(ctx, st);  // banner too long
        }
        return;
      }
    }

    while (st->conn >= 0 && !ctx.crash().crashed) {
      if (st->buf_len < 6) {
        return;
      }
      uint32_t pkt_len = static_cast<uint32_t>(st->buf[0]) << 24 |
                         static_cast<uint32_t>(st->buf[1]) << 16 |
                         static_cast<uint32_t>(st->buf[2]) << 8 | st->buf[3];
      if (ctx.CovBranch(pkt_len < 2 || pkt_len > 35000, kSite + 18)) {
        Disconnect(ctx, st);  // bad packet length
        return;
      }
      if (4 + pkt_len > st->buf_len) {
        return;  // incomplete packet
      }
      const uint8_t padlen = st->buf[4];
      // padlen + type byte + padding must fit: payload_len below must not
      // underflow (a classic SSH framing bug class).
      if (ctx.CovBranch(padlen + 2u > pkt_len, kSite + 20)) {
        Disconnect(ctx, st);
        return;
      }
      const uint8_t type = st->buf[5];
      const uint8_t* payload = st->buf + 6;
      const uint32_t payload_len = pkt_len - 2 - padlen;
      ctx.Charge(kRequestNs + ctx.cost().per_byte_ns * pkt_len);
      HandlePacket(ctx, st, type, payload, payload_len);
      if (st->conn < 0) {
        return;
      }
      Consume(st, 4 + pkt_len);
    }
  }

  // Parses an SSH name-list: u32 length + comma-separated names.
  bool ParseNameList(GuestContext& ctx, const uint8_t* p, uint32_t len, uint32_t* off,
                     uint32_t site) {
    if (static_cast<uint64_t>(*off) + 4 > len) {
      return false;
    }
    const uint32_t nl = static_cast<uint32_t>(p[*off]) << 24 |
                        static_cast<uint32_t>(p[*off + 1]) << 16 |
                        static_cast<uint32_t>(p[*off + 2]) << 8 | p[*off + 3];
    *off += 4;
    // 64-bit arithmetic: a hostile 4 GiB name-list length must not wrap the
    // bounds check (CVE-2002-0639 says hello).
    if (ctx.CovBranch(static_cast<uint64_t>(*off) + nl > len, site)) {
      return false;
    }
    // Count names (commas + 1) for coverage flavour.
    uint32_t names = nl > 0 ? 1 : 0;
    for (uint32_t i = 0; i < nl; i++) {
      names += p[*off + i] == ',' ? 1 : 0;
    }
    if (ctx.CovBranch(names > 4, site + 1)) {
      ctx.Cov(site + 2);
    }
    *off += nl;
    return true;
  }

  void HandlePacket(GuestContext& ctx, State* st, uint8_t type, const uint8_t* payload,
                    uint32_t len) {
    switch (type) {
      case kMsgKexInit: {
        ctx.Cov(kSite + 30);
        // 16-byte cookie + 10 name-lists + flags.
        if (ctx.CovBranch(len < 17, kSite + 32)) {
          Disconnect(ctx, st);
          return;
        }
        uint32_t off = 16;
        for (int list = 0; list < 10; list++) {
          if (!ParseNameList(ctx, payload, len, &off, kSite + 34 + list * 4)) {
            Disconnect(ctx, st);
            return;
          }
        }
        st->kex_done = 1;
        SendPacket(ctx, st, kMsgKexInit, 64);
        return;
      }
      case kMsgKexDhInit:
        ctx.Cov(kSite + 80);
        if (ctx.CovBranch(!st->kex_done, kSite + 82)) {
          Disconnect(ctx, st);
          return;
        }
        SendPacket(ctx, st, 31, 96);  // KEXDH_REPLY
        return;
      case kMsgNewKeys:
        ctx.Cov(kSite + 84);
        if (ctx.CovBranch(st->kex_done, kSite + 86)) {
          st->keys_live = 1;
          SendPacket(ctx, st, kMsgNewKeys, 0);
        } else {
          Disconnect(ctx, st);
        }
        return;
      case kMsgServiceRequest: {
        ctx.Cov(kSite + 88);
        if (ctx.CovBranch(!st->keys_live, kSite + 90)) {
          Disconnect(ctx, st);
          return;
        }
        if (ctx.CovBranch(len >= 16 && memcmp(payload + 4, "ssh-userauth", 12) == 0,
                          kSite + 92)) {
          st->service_ok = 1;
          SendPacket(ctx, st, 6, 16);  // SERVICE_ACCEPT
        } else {
          Disconnect(ctx, st);
        }
        return;
      }
      case kMsgUserauthRequest: {
        ctx.Cov(kSite + 94);
        if (ctx.CovBranch(!st->service_ok, kSite + 96)) {
          Disconnect(ctx, st);
          return;
        }
        // user string, service string, method string.
        const bool is_none = len > 8 && memchr(payload, 'n', len) != nullptr &&
                             memcmp(payload + len - 4, "none", 4) == 0;
        const bool is_password =
            len > 12 && memcmp(payload + len - 8, "password", 8) == 0;
        const bool is_pubkey = len > 12 && memcmp(payload + len - 9, "publickey", 9) == 0;
        if (ctx.CovBranch(is_none, kSite + 98)) {
          SendPacket(ctx, st, 51, 24);  // USERAUTH_FAILURE with methods list
        } else if (ctx.CovBranch(is_password, kSite + 100)) {
          st->auth_failures++;
          if (ctx.CovBranch(st->auth_failures > 5, kSite + 102)) {
            Disconnect(ctx, st);
            return;
          }
          SendPacket(ctx, st, 51, 24);
        } else if (ctx.CovBranch(is_pubkey, kSite + 104)) {
          SendPacket(ctx, st, 60, 32);  // USERAUTH_PK_OK-ish
        } else {
          ctx.Cov(kSite + 106);
          SendPacket(ctx, st, 51, 24);
        }
        return;
      }
      case kMsgDisconnect:
        ctx.Cov(kSite + 108);
        Disconnect(ctx, st);
        return;
      case kMsgIgnore:
      case kMsgDebug:
        ctx.Cov(kSite + 110);
        return;  // silently ignored
      default:
        ctx.Cov(kSite + 112);
        SendPacket(ctx, st, 3, 4);  // UNIMPLEMENTED
        return;
    }
  }

  // One binary packet: big-endian length, padding length 0, type, zero
  // body.
  void SendPacket(GuestContext& ctx, State* st, uint8_t type, uint32_t body) {
    NYX_DCHECK_LE(body, kMaxPacketBody);
    const uint32_t len = body + 2;
    uint8_t pkt[6 + kMaxPacketBody] = {static_cast<uint8_t>(len >> 24),
                                       static_cast<uint8_t>(len >> 16),
                                       static_cast<uint8_t>(len >> 8),
                                       static_cast<uint8_t>(len),
                                       0,  // padlen
                                       type};
    ctx.net().Send(st->conn, pkt, 4 + len);
  }

  void Disconnect(GuestContext& ctx, State* st) {
    ctx.net().Close(st->conn);
    st->conn = -1;
  }
};

}  // namespace

std::unique_ptr<Target> MakeOpenSsh() { return std::make_unique<OpenSsh>(); }

}  // namespace nyx

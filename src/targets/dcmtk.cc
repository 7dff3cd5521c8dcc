// dcmtk analogue: a DICOM upper-layer (storescp-style) server.
//
// Seeded bug with the Table 1 footnote behaviour: a P-DATA-TF data element
// whose declared length exceeds its 128-byte staging buffer is copied with
// GuestContext::HeapWrite. With ASan the overflow aborts immediately ("the
// crash is found within the first 10 seconds"). Without ASan the write
// silently corrupts the neighbouring allocation; the corruption only crashes
// later — when the association release path frees the buffer — and only if
// the overflow ran past the layout-dependent gap, which is randomized per
// campaign ("Nyx-Net is able to find the bug in some runs, but not others
// depending on the initial memory layout").

#include <cstring>

#include "src/common/check.h"
#include "src/targets/registry.h"
#include "src/targets/textproto.h"

namespace nyx {
namespace {

constexpr uint32_t kSite = 13000;
constexpr uint16_t kPort = 11112;
constexpr uint64_t kStartupNs = 15'000'000;
constexpr uint64_t kRequestNs = 120'000;
constexpr uint64_t kAflnetExtraNs = 14'000'000;

constexpr uint8_t kPduAssociateRq = 0x01;
constexpr uint8_t kPduAssociateAc = 0x02;
constexpr uint8_t kPduAssociateRj = 0x03;
constexpr uint8_t kPduDataTf = 0x04;
constexpr uint8_t kPduReleaseRq = 0x05;
constexpr uint8_t kPduReleaseRp = 0x06;
constexpr uint8_t kPduAbort = 0x07;
// The longest PDU body the server sends (its A-ASSOCIATE-AC).
constexpr uint32_t kMaxPduBody = 68;

struct State {
  int listener;
  int conn;
  uint8_t associated;
  uint8_t presentation_contexts;
  uint64_t element_buf;  // 128-byte staging buffer on the guest heap
  uint64_t neighbor_buf; // allocation behind the layout gap
  uint32_t layout_gap;   // randomized per campaign at Init
  uint8_t buf[4096];
  uint32_t buf_len;
  uint32_t elements_parsed;
};

class Dcmtk final : public Target {
 public:
  TargetInfo info() const override {
    TargetInfo ti;
    ti.name = "dcmtk";
    ti.port = kPort;
    ti.split = SplitStrategy::kSegment;
    ti.desock_compatible = false;  // association state machine needs sockets
    ti.startup_ns = kStartupNs;
    ti.request_ns = kRequestNs;
    ti.aflnet_extra_ns = kAflnetExtraNs;
    ti.startup_dirty_pages = 10;
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
    st->element_buf = ctx.Malloc(128);
    // Layout-dependent slack between the staging buffer and the next
    // allocation. Randomized once per campaign, like a real process's heap
    // layout: small gaps make the latent corruption easy to hit, large gaps
    // may keep it latent for the whole campaign.
    st->layout_gap = static_cast<uint32_t>(ctx.rng().Below(96)) * 16;
    if (st->layout_gap > 0) {
      ctx.Malloc(st->layout_gap);
    }
    st->neighbor_buf = ctx.Malloc(64);
    ctx.TouchScratch(10, 0xdd);
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
        st->associated = 0;
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
      if (st->buf_len < 6) {
        return;
      }
      const uint8_t pdu_type = st->buf[0];
      const uint32_t pdu_len = static_cast<uint32_t>(st->buf[2]) << 24 |
                               static_cast<uint32_t>(st->buf[3]) << 16 |
                               static_cast<uint32_t>(st->buf[4]) << 8 | st->buf[5];
      if (ctx.CovBranch(pdu_len > sizeof(st->buf) - 6, kSite + 10)) {
        Abort(ctx, st);
        return;
      }
      if (6 + pdu_len > st->buf_len) {
        return;
      }
      ctx.Charge(kRequestNs + ctx.cost().per_byte_ns * pdu_len);
      HandlePdu(ctx, st, pdu_type, st->buf + 6, pdu_len);
      if (st->conn < 0) {
        return;
      }
      memmove(st->buf, st->buf + 6 + pdu_len, st->buf_len - 6 - pdu_len);
      st->buf_len -= 6 + pdu_len;
    }
  }

  void HandlePdu(GuestContext& ctx, State* st, uint8_t type, const uint8_t* body, uint32_t len) {
    switch (type) {
      case kPduAssociateRq: {
        ctx.Cov(kSite + 12);
        // protocol version (2) + reserved (2) + called AE (16) + calling AE (16).
        if (ctx.CovBranch(len < 68, kSite + 14)) {
          Reject(ctx, st, 1);
          return;
        }
        const uint16_t version = static_cast<uint16_t>(body[0] << 8 | body[1]);
        if (ctx.CovBranch((version & 1) == 0, kSite + 16)) {
          Reject(ctx, st, 2);
          return;
        }
        // Called AE title must be printable and non-blank.
        bool blank = true;
        for (int i = 0; i < 16; i++) {
          const uint8_t c = body[4 + i];
          if (ctx.CovBranch(c != ' ' && (c < 0x20 || c > 0x7e), kSite + 18)) {
            Reject(ctx, st, 3);
            return;
          }
          blank &= c == ' ';
        }
        if (ctx.CovBranch(blank, kSite + 20)) {
          Reject(ctx, st, 3);
          return;
        }
        // Variable items: presentation contexts (0x20), app context (0x10).
        uint32_t p = 68;
        st->presentation_contexts = 0;
        while (p + 4 <= len) {
          const uint8_t item = body[p];
          const uint16_t item_len = static_cast<uint16_t>(body[p + 2] << 8 | body[p + 3]);
          p += 4;
          if (ctx.CovBranch(p + item_len > len, kSite + 22)) {
            Reject(ctx, st, 1);
            return;
          }
          if (ctx.CovBranch(item == 0x10, kSite + 24)) {
            ctx.Cov(kSite + 26);  // application context
          } else if (ctx.CovBranch(item == 0x20, kSite + 28)) {
            st->presentation_contexts++;
            if (ctx.CovBranch(st->presentation_contexts > 8, kSite + 30)) {
              Reject(ctx, st, 1);
              return;
            }
          } else if (ctx.CovBranch(item == 0x50, kSite + 32)) {
            ctx.Cov(kSite + 34);  // user information
          } else {
            ctx.Cov(kSite + 36);
          }
          p += item_len;
        }
        if (ctx.CovBranch(st->presentation_contexts == 0, kSite + 38)) {
          Reject(ctx, st, 1);
          return;
        }
        st->associated = 1;
        SendPdu(ctx, st, kPduAssociateAc, 68);
        return;
      }
      case kPduDataTf: {
        ctx.Cov(kSite + 40);
        if (ctx.CovBranch(!st->associated, kSite + 42)) {
          Abort(ctx, st);
          return;
        }
        // PDV items: [len u32][context id u8][flags u8][DICOM data].
        uint32_t p = 0;
        while (p + 6 <= len) {
          const uint32_t pdv_len = static_cast<uint32_t>(body[p]) << 24 |
                                   static_cast<uint32_t>(body[p + 1]) << 16 |
                                   static_cast<uint32_t>(body[p + 2]) << 8 | body[p + 3];
          if (ctx.CovBranch(pdv_len < 2 ||
                                static_cast<uint64_t>(p) + 4 + pdv_len > len,
                            kSite + 44)) {
            Abort(ctx, st);
            return;
          }
          ParseDicomData(ctx, st, body + p + 6, pdv_len - 2);
          if (ctx.crash().crashed) {
            return;
          }
          p += 4 + pdv_len;
        }
        SendPdu(ctx, st, kPduDataTf, 12);  // C-STORE-RSP
        return;
      }
      case kPduReleaseRq:
        ctx.Cov(kSite + 46);
        if (ctx.CovBranch(st->associated, kSite + 48)) {
          // Releasing the association frees the per-association buffers —
          // this is where latent (non-ASan) corruption of the neighbouring
          // allocation's header finally crashes, glibc-style.
          ctx.Free(st->neighbor_buf);
          if (ctx.crash().crashed) {
            return;
          }
          ctx.Free(st->element_buf);
          st->element_buf = ctx.Malloc(128);
          st->neighbor_buf = ctx.Malloc(64);
          st->associated = 0;
          SendPdu(ctx, st, kPduReleaseRp, 4);
        } else {
          Abort(ctx, st);
        }
        return;
      case kPduAbort:
        ctx.Cov(kSite + 50);
        ctx.net().Close(st->conn);
        st->conn = -1;
        return;
      default:
        ctx.Cov(kSite + 52);
        Abort(ctx, st);
        return;
    }
  }

  // Parses DICOM elements: [group u16le][element u16le][len u16le][data].
  void ParseDicomData(GuestContext& ctx, State* st, const uint8_t* data, uint32_t len) {
    uint32_t p = 0;
    while (p + 6 <= len) {
      st->elements_parsed++;
      const uint16_t group = static_cast<uint16_t>(data[p] | data[p + 1] << 8);
      const uint16_t elem_len = static_cast<uint16_t>(data[p + 4] | data[p + 5] << 8);
      p += 6;
      if (ctx.CovBranch(group == 0x0008, kSite + 54)) {
        ctx.Cov(kSite + 56);  // identifying group
      } else if (ctx.CovBranch(group == 0x0010, kSite + 58)) {
        ctx.Cov(kSite + 60);  // patient group
      }
      const uint32_t avail = len - p;
      const uint32_t copy_len = elem_len < avail ? elem_len : avail;
      // BUG: the declared element length is trusted for the staging copy
      // even when it exceeds the 128-byte buffer. ASan traps the overflow
      // immediately; without it the bytes land in the layout gap — and in
      // the neighbour's allocation header if copy_len reaches far enough,
      // which only a later free notices.
      if (ctx.CovBranch(copy_len > 0, kSite + 62)) {
        ctx.HeapWrite(st->element_buf, 0, data + p, copy_len);
        if (ctx.crash().crashed) {
          return;
        }
      }
      p += copy_len;
    }
  }

  // One PDU: type, reserved byte, big-endian body length, zero body.
  void SendPdu(GuestContext& ctx, State* st, uint8_t type, uint32_t body_len) {
    NYX_DCHECK_LE(body_len, kMaxPduBody);
    uint8_t pdu[6 + kMaxPduBody] = {type,
                                    0,
                                    static_cast<uint8_t>(body_len >> 24),
                                    static_cast<uint8_t>(body_len >> 16),
                                    static_cast<uint8_t>(body_len >> 8),
                                    static_cast<uint8_t>(body_len)};
    ctx.net().Send(st->conn, pdu, 6 + body_len);
  }

  void Reject(GuestContext& ctx, State* st, uint8_t reason) {
    uint8_t rj[10] = {kPduAssociateRj, 0, 0, 0, 0, 4, 0, 1, 1, reason};
    ctx.net().Send(st->conn, rj, sizeof(rj));
    ctx.net().Close(st->conn);
    st->conn = -1;
  }

  void Abort(GuestContext& ctx, State* st) {
    uint8_t ab[10] = {kPduAbort, 0, 0, 0, 0, 4, 0, 0, 0, 0};
    ctx.net().Send(st->conn, ab, sizeof(ab));
    ctx.net().Close(st->conn);
    st->conn = -1;
  }
};

}  // namespace

std::unique_ptr<Target> MakeDcmtk() { return std::make_unique<Dcmtk>(); }

}  // namespace nyx

// Tests for DeviceState: fast copy reset, QEMU-style serialization round
// trip, and rejection of malformed blobs (failure injection).

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/vm/device_state.h"

namespace nyx {
namespace {

DeviceState MakeState() {
  DeviceState s;
  s.AddDevice("serial", 16);
  s.AddDevice("nic", 64);
  for (size_t i = 0; i < 16; i++) {
    s.regs(0)[i] = static_cast<uint8_t>(i);
  }
  for (size_t i = 0; i < 64; i++) {
    s.regs(1)[i] = static_cast<uint8_t>(255 - i);
  }
  return s;
}

TEST(DeviceStateTest, TotalBytes) {
  DeviceState s = MakeState();
  EXPECT_EQ(s.total_bytes(), 80u);
  EXPECT_EQ(s.device_count(), 2u);
  EXPECT_EQ(s.name(0), "serial");
}

TEST(DeviceStateTest, FastCopyRestoresRegisters) {
  DeviceState s = MakeState();
  DeviceState saved = MakeState();
  s.regs(0)[3] = 0xff;
  s.regs(1)[10] = 0xff;
  EXPECT_FALSE(s == saved);
  s.CopyFrom(saved);
  EXPECT_TRUE(s == saved);
}

TEST(DeviceStateTest, SerializeRoundTrip) {
  DeviceState s = MakeState();
  Bytes blob = s.Serialize();
  DeviceState t = MakeState();
  t.regs(0)[0] = 0x99;
  EXPECT_TRUE(t.Deserialize(blob));
  EXPECT_TRUE(t == s);
}

TEST(DeviceStateTest, DeserializeRejectsBadMagic) {
  DeviceState s = MakeState();
  Bytes blob = s.Serialize();
  blob[0] ^= 0xff;
  EXPECT_FALSE(s.Deserialize(blob));
}

TEST(DeviceStateTest, DeserializeRejectsTruncated) {
  DeviceState s = MakeState();
  Bytes blob = s.Serialize();
  blob.resize(blob.size() / 2);
  EXPECT_FALSE(s.Deserialize(blob));
}

TEST(DeviceStateTest, DeserializeRejectsWrongLayout) {
  DeviceState s = MakeState();
  Bytes blob = s.Serialize();
  DeviceState other;
  other.AddDevice("serial", 16);  // missing the second device
  EXPECT_FALSE(other.Deserialize(blob));
}

TEST(DeviceStateTest, DeserializeRejectsTrailingGarbage) {
  DeviceState s = MakeState();
  Bytes blob = s.Serialize();
  blob.push_back(0);
  EXPECT_FALSE(s.Deserialize(blob));
}

TEST(DeviceStateTest, DeserializeRejectsCorruptFieldTag) {
  DeviceState s = MakeState();
  Bytes blob = s.Serialize();
  // Field tags start after magic+count+name_len+name+reg_len.
  size_t tag_off = 4 + 4 + 4 + 6 + 4;
  blob[tag_off] ^= 0x40;
  EXPECT_FALSE(s.Deserialize(blob));
}

TEST(DeviceStateTest, DeserializeSurvivesRandomCorruption) {
  // Device blobs are engine-produced, but a Deserialize that can be
  // walked out of bounds by a flipped length field is a time bomb. 10k
  // random corruptions of a valid blob: every one must either be rejected
  // or produce a state that round-trips — never crash or hang.
  const Bytes good = MakeState().Serialize();
  Rng rng(0x5eed);
  for (int iter = 0; iter < 10000; iter++) {
    Bytes blob = good;
    switch (rng.Below(4)) {
      case 0:  // flip 1..8 random bytes
        for (uint64_t k = rng.Range(1, 8); k > 0; k--) {
          blob[rng.Below(blob.size())] ^= static_cast<uint8_t>(rng.Range(1, 255));
        }
        break;
      case 1:  // truncate
        blob.resize(rng.Below(blob.size()));
        break;
      case 2:  // extend with junk
        for (uint64_t k = rng.Range(1, 16); k > 0; k--) {
          blob.push_back(rng.NextByte());
        }
        break;
      default:  // overwrite a 32-bit field with an extreme value
        if (blob.size() >= 4) {
          const size_t at = rng.Below(blob.size() - 3);
          const uint32_t v = rng.Chance(1, 2) ? 0xffffffffu : 0x7fffffffu;
          blob[at] = static_cast<uint8_t>(v);
          blob[at + 1] = static_cast<uint8_t>(v >> 8);
          blob[at + 2] = static_cast<uint8_t>(v >> 16);
          blob[at + 3] = static_cast<uint8_t>(v >> 24);
        }
        break;
    }
    DeviceState victim = MakeState();
    if (victim.Deserialize(blob)) {
      // Accepted (corruption hit a don't-care byte or cancelled out): the
      // resulting state must itself serialize and parse cleanly.
      DeviceState check = MakeState();
      EXPECT_TRUE(check.Deserialize(victim.Serialize())) << "iteration " << iter;
    }
  }
}

}  // namespace
}  // namespace nyx

#include "net/message.h"

#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "model/section_codec.h"

namespace lla::net {
namespace {

/// Keeps `bytes` alive for the rest of the test binary and returns a view of
/// them: a message only views its payload, and the ones built here outlive
/// the helpers that encode them.
WireSlice Keep(std::string bytes) {
  static std::deque<std::string> kept;
  kept.push_back(std::move(bytes));
  return WireSlice(kept.back().data(), kept.back().size());
}

Message MakeRepairRequestMessage() {
  RepairRequest request;
  request.resource = ResourceId(6u);
  Message message;
  message.sender = 9;
  message.receiver = 4;
  message.incarnation = 2;
  message.payload = request;
  return message;
}

Message MakeRepairResponseMessage() {
  RepairResponse repair;
  repair.resource = ResourceId(6u);
  repair.task = TaskId(1u);
  repair.mu = 37.5;
  repair.epoch = 250;
  repair.congested = true;
  std::string entries;
  AppendRepairEntry(SubtaskId(3u), 4.25, &entries);
  AppendRepairEntry(SubtaskId(8u), 0.5, &entries);
  repair.entries = Keep(std::move(entries));
  Message message;
  message.sender = 4;
  message.receiver = 9;
  message.payload = std::move(repair);
  return message;
}

Message ShardLatencyMessage(const std::vector<double>& latencies) {
  std::string bytes;
  AppendShardLatencyPayload(latencies.data(), latencies.size(), &bytes);
  ShardLatencyUpdate update;
  update.host = 5;
  update.shard = 2;
  update.count = static_cast<std::uint32_t>(latencies.size());
  update.payload = Keep(std::move(bytes));
  Message message;
  message.sender = 11;
  message.receiver = 6;
  message.payload = std::move(update);
  return message;
}

/// `stale` empty sends no stale flags.
Message ShardPriceMessage(const std::vector<double>& mu,
                          const std::vector<std::uint8_t>& congested,
                          const std::vector<std::uint8_t>& stale) {
  std::string bytes;
  AppendShardPricePayload(mu.data(), congested.data(),
                          stale.empty() ? nullptr : stale.data(), mu.size(),
                          &bytes);
  ShardPriceUpdate update;
  update.shard = 1;
  update.epoch = 77;
  update.count = static_cast<std::uint32_t>(mu.size());
  update.payload = Keep(std::move(bytes));
  Message message;
  message.sender = 6;
  message.receiver = 11;
  message.payload = std::move(update);
  return message;
}

Message MakeShardLatencyMessage() {
  return ShardLatencyMessage({4.5, 9.25, -1.75});
}

Message MakeShardPriceMessage(bool with_stale) {
  return ShardPriceMessage({10.0, 0.0, 256.5}, {1, 0, 1},
                           with_stale ? std::vector<std::uint8_t>{0, 1, 0}
                                      : std::vector<std::uint8_t>{});
}

// Shard payload cases covering every b1 encoding the wire can carry.
// EncodeWords picks the smallest: distinct values stay raw, a constant
// nonzero vector is one rle run, and a cold start (all zero) or a
// mostly-zero vector goes sparse.  One entry is always raw: its 8 bytes
// beat rle's 24, and sparse (8 or 20 bytes) is never strictly smaller.  The
// counts straddle the 8-entry bytes of the congested and stale bitsets.
enum class Pattern { kDistinct, kConstant, kAllZero, kOneNonzero };

struct ShardPayloadCase {
  std::size_t count;
  Pattern pattern;
  std::uint8_t encoding;  ///< the encoding EncodeWords must pick

  std::vector<double> Values() const {
    std::vector<double> values(count, 0.0);
    for (std::size_t i = 0; i < count; ++i) {
      const double x = static_cast<double>(i);
      if (pattern == Pattern::kDistinct) values[i] = 1.5 * x - 2.25;
      if (pattern == Pattern::kConstant) values[i] = 37.5;
      if (pattern == Pattern::kOneNonzero && i == count / 2) values[i] = 3.5;
    }
    return values;
  }
  std::vector<std::uint8_t> Congested() const {
    std::vector<std::uint8_t> bits(count);
    for (std::size_t i = 0; i < count; ++i) bits[i] = i % 3 != 1 ? 1 : 0;
    return bits;
  }
  std::vector<std::uint8_t> Stale() const {
    std::vector<std::uint8_t> bits(count);
    for (std::size_t i = 0; i < count; ++i) bits[i] = i % 2 == 0 ? 1 : 0;
    return bits;
  }
};

std::vector<ShardPayloadCase> ShardPayloadCases() {
  std::vector<ShardPayloadCase> cases;
  for (const std::size_t count : {1u, 7u, 8u, 9u, 64u}) {
    const bool one = count == 1;
    cases.push_back({count, Pattern::kDistinct, b1::kEncodingRaw});
    cases.push_back({count, Pattern::kConstant,
                     one ? b1::kEncodingRaw : b1::kEncodingRle});
    cases.push_back({count, Pattern::kAllZero,
                     one ? b1::kEncodingRaw : b1::kEncodingSparse});
    cases.push_back({count, Pattern::kOneNonzero,
                     one ? b1::kEncodingRaw : b1::kEncodingSparse});
  }
  return cases;
}

std::string Describe(const ShardPayloadCase& c) {
  return "count=" + std::to_string(c.count) + " pattern=" +
         std::to_string(static_cast<int>(c.pattern)) + " encoding=" +
         b1::kEncodingNames[c.encoding];
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(MessageTest, RepairRequestRoundTrips) {
  const Message original = MakeRepairRequestMessage();
  const auto bytes = Serialize(original);
  const auto decoded = Deserialize(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, original);
  EXPECT_EQ(decoded->incarnation, 2u);
}

TEST(MessageTest, RepairResponseRoundTrips) {
  const Message original = MakeRepairResponseMessage();
  const auto bytes = Serialize(original);
  const auto decoded = Deserialize(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, original);
  const auto& repair = std::get<RepairResponse>(decoded->payload);
  EXPECT_EQ(repair.epoch, 250u);
  EXPECT_TRUE(repair.congested);
  ASSERT_EQ(repair.entry_count(), 2u);
  EXPECT_EQ(repair.entry(0).subtask, SubtaskId(3u));
  EXPECT_DOUBLE_EQ(repair.entry(0).latency_ms, 4.25);
  EXPECT_EQ(repair.entry(1).subtask, SubtaskId(8u));
  EXPECT_DOUBLE_EQ(repair.entry(1).latency_ms, 0.5);
  // The entries are a view into the deserialized bytes, not a copy.
  EXPECT_EQ(repair.entries.data(),
            reinterpret_cast<const char*>(bytes.data()) + 38);
}

TEST(MessageTest, IncarnationSurvivesRoundTrip) {
  Message message = MakeShardPriceMessage(true);
  message.incarnation = 0xdeadbeef;
  const auto bytes = Serialize(message);
  const auto decoded = Deserialize(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->incarnation, 0xdeadbeefu);
}

TEST(MessageTest, WireSizeMatchesSerializedLength) {
  for (const Message& message :
       {MakeShardLatencyMessage(), MakeShardPriceMessage(true),
        MakeRepairRequestMessage(), MakeRepairResponseMessage()}) {
    EXPECT_EQ(WireSize(message), Serialize(message).size());
  }
}

TEST(MessageTest, RejectsTruncatedInput) {
  auto bytes = Serialize(MakeRepairResponseMessage());
  for (std::size_t cut = 1; cut < bytes.size(); cut += 3) {
    std::vector<std::uint8_t> truncated(bytes.begin(),
                                        bytes.begin() + cut);
    EXPECT_FALSE(Deserialize(truncated).has_value()) << "cut=" << cut;
  }
}

// The entry count of a repair response is outside input: a count its
// bytes cannot hold (12 bytes per entry) is refused before anything is
// reserved for it.  A 38-byte response carries none.
TEST(MessageTest, RejectsRepairCountsTheBytesCannotHold) {
  Message message;
  message.payload = RepairResponse{};
  std::vector<std::uint8_t> bytes = Serialize(message);
  ASSERT_EQ(bytes.size(), 38u);
  ASSERT_TRUE(Deserialize(bytes).has_value());
  for (const std::uint32_t count :
       {0xffffffffu, std::uint32_t{1} << 24, std::uint32_t{1}}) {
    std::memcpy(bytes.data() + 34, &count, 4);  // the last field
    EXPECT_FALSE(Deserialize(bytes).has_value()) << count;
  }
}

TEST(MessageTest, RejectsTrailingGarbage) {
  auto bytes = Serialize(MakeRepairRequestMessage());
  bytes.push_back(0xab);
  EXPECT_FALSE(Deserialize(bytes).has_value());
}

TEST(MessageTest, RejectsUnknownTag) {
  auto bytes = Serialize(MakeRepairRequestMessage());
  bytes[12] = 0x7f;  // tag byte follows sender, receiver and incarnation
  EXPECT_FALSE(Deserialize(bytes).has_value());
}

// Tags 1 and 2 belonged to the retired per-resource latency and price
// messages: a frame carrying either, in its old layout, must be rejected,
// while the surviving kinds keep tags 3-6.
TEST(MessageTest, RejectsRetiredPerResourceTags) {
  // Tag 1, old latency layout: task, count = 1, one (subtask, f64) pair.
  std::vector<std::uint8_t> latency(12, 0);
  latency.push_back(1);
  for (int i = 0; i < 8; ++i) latency.push_back(i == 4 ? 1 : 0);
  for (int i = 0; i < 12; ++i) latency.push_back(0);
  EXPECT_FALSE(Deserialize(latency).has_value());
  // Tag 2, old price layout: resource, f64 mu, epoch, congested flag.
  std::vector<std::uint8_t> price(12, 0);
  price.push_back(2);
  for (int i = 0; i < 17; ++i) price.push_back(0);
  EXPECT_FALSE(Deserialize(price).has_value());

  EXPECT_EQ(Serialize(MakeRepairRequestMessage())[12], 3);
  EXPECT_EQ(Serialize(MakeRepairResponseMessage())[12], 4);
  EXPECT_EQ(Serialize(MakeShardLatencyMessage())[12], 5);
  EXPECT_EQ(Serialize(MakeShardPriceMessage(false))[12], 6);
}

TEST(MessageTest, RejectsEmptyInput) {
  const std::vector<std::uint8_t> empty;
  EXPECT_FALSE(Deserialize(empty).has_value());
}

TEST(MessageTest, ShardLatencyUpdateRoundTrips) {
  for (const ShardPayloadCase& c : ShardPayloadCases()) {
    SCOPED_TRACE(Describe(c));
    const std::vector<double> values = c.Values();
    const Message original = ShardLatencyMessage(values);
    const auto& sent = std::get<ShardLatencyUpdate>(original.payload);
    // Payload layout: [encoding u8][words...].
    EXPECT_EQ(static_cast<std::uint8_t>(sent.payload.data()[0]), c.encoding);
    const auto bytes = Serialize(original);
    const auto decoded = Deserialize(bytes);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, original);
    const auto& update = std::get<ShardLatencyUpdate>(decoded->payload);
    std::vector<double> latencies(update.count);
    ASSERT_TRUE(DecodeShardLatencyUpdate(update, latencies.data()));
    EXPECT_TRUE(SameBits(latencies, values));
  }
}

TEST(MessageTest, ShardPriceUpdateRoundTrips) {
  for (const ShardPayloadCase& c : ShardPayloadCases()) {
    for (const bool with_stale : {false, true}) {
      SCOPED_TRACE(Describe(c) + (with_stale ? " stale" : ""));
      const std::vector<double> mu = c.Values();
      const std::vector<std::uint8_t> congested = c.Congested();
      const std::vector<std::uint8_t> stale = c.Stale();
      const Message original = ShardPriceMessage(
          mu, congested, with_stale ? stale : std::vector<std::uint8_t>{});
      const auto& sent = std::get<ShardPriceUpdate>(original.payload);
      // Payload layout: [flags u8][encoding u8][words...][bitsets].
      EXPECT_EQ(static_cast<std::uint8_t>(sent.payload.data()[0]),
                with_stale ? 1 : 0);
      EXPECT_EQ(static_cast<std::uint8_t>(sent.payload.data()[1]),
                c.encoding);
      const auto bytes = Serialize(original);
      const auto decoded = Deserialize(bytes);
      ASSERT_TRUE(decoded.has_value());
      EXPECT_EQ(*decoded, original);
      const auto& update = std::get<ShardPriceUpdate>(decoded->payload);
      EXPECT_EQ(update.epoch, 77u);
      std::vector<double> decoded_mu(update.count);
      ShardPriceBitsets bits;
      ASSERT_TRUE(DecodeShardPriceUpdate(update, decoded_mu.data(), &bits));
      EXPECT_TRUE(SameBits(decoded_mu, mu));
      if (with_stale) {
        ASSERT_NE(bits.stale, nullptr);
      } else {
        EXPECT_EQ(bits.stale, nullptr);
      }
      for (std::size_t j = 0; j < c.count; ++j) {
        EXPECT_EQ(TestWireBit(bits.congested, j), congested[j] != 0) << j;
        if (with_stale) {
          EXPECT_EQ(TestWireBit(bits.stale, j), stale[j] != 0) << j;
        }
      }
    }
  }
}

TEST(MessageTest, ShardWireSizeMatchesSerializedLength) {
  for (const ShardPayloadCase& c : ShardPayloadCases()) {
    SCOPED_TRACE(Describe(c));
    for (const Message& message :
         {ShardLatencyMessage(c.Values()),
          ShardPriceMessage(c.Values(), c.Congested(), {}),
          ShardPriceMessage(c.Values(), c.Congested(), c.Stale())}) {
      EXPECT_EQ(WireSize(message), Serialize(message).size());
    }
  }
}

TEST(MessageTest, ShardMessagesSmallerThanIdCarryingFormat) {
  // The positional wire format must beat the PR 8 id-carrying one at every
  // entry count: 25 + 12n (latency) / 25 + 13n (price) bytes then.
  for (std::size_t n : {1u, 2u, 7u, 64u}) {
    std::vector<double> values(n, 3.25);
    std::vector<std::uint8_t> congested(n, 1);
    std::string bytes;
    const PayloadSpan lat_span =
        AppendShardLatencyPayload(values.data(), n, &bytes);
    const PayloadSpan price_span = AppendShardPricePayload(
        values.data(), congested.data(), nullptr, n, &bytes);
    Message latency;
    latency.payload = ShardLatencyUpdate{
        0, 0, static_cast<std::uint32_t>(n),
        WireSlice(bytes.data() + lat_span.offset, lat_span.length)};
    Message price;
    price.payload = ShardPriceUpdate{
        0, 0, static_cast<std::uint32_t>(n),
        WireSlice(bytes.data() + price_span.offset, price_span.length)};
    EXPECT_LT(WireSize(latency), 25 + 12 * n) << "n=" << n;
    EXPECT_LT(WireSize(price), 25 + 13 * n) << "n=" << n;
  }
}

TEST(MessageTest, ShardSlicesShareOneArena) {
  // Encode once, view per client: two payloads appended to one buffer are
  // viewed at their own offsets of the same bytes.
  std::string bytes;
  const double a[] = {1.0, 2.0};
  const double b[] = {3.0};
  const PayloadSpan span_a = AppendShardLatencyPayload(a, 2, &bytes);
  const PayloadSpan span_b = AppendShardLatencyPayload(b, 1, &bytes);
  EXPECT_EQ(span_b.offset, span_a.offset + span_a.length);
  EXPECT_EQ(span_b.offset + span_b.length, bytes.size());
  const WireSlice slice_a(bytes.data() + span_a.offset, span_a.length);
  const WireSlice slice_b(bytes.data() + span_b.offset, span_b.length);
  // Equality is byte-wise, so a view of a copy compares equal to the
  // original.
  const std::string copy(slice_a.data(), slice_a.size());
  EXPECT_EQ(slice_a, WireSlice(copy.data(), copy.size()));
  EXPECT_FALSE(slice_a == slice_b);
}

TEST(MessageTest, RejectsTruncatedShardMessages) {
  for (const Message& message :
       {MakeShardLatencyMessage(), MakeShardPriceMessage(true)}) {
    const auto bytes = Serialize(message);
    for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
      std::vector<std::uint8_t> truncated(bytes.begin(),
                                          bytes.begin() + cut);
      EXPECT_FALSE(Deserialize(truncated).has_value()) << "cut=" << cut;
    }
  }
}

TEST(MessageTest, RejectsCorruptShardPayloadEncoding) {
  auto bytes = Serialize(MakeShardLatencyMessage());
  // Payload layout after the 25-byte prefix: [encoding u8][words...];
  // an unknown encoding byte must be rejected at deserialize time.
  bytes[25] = 0x7f;
  EXPECT_FALSE(Deserialize(bytes).has_value());
}

TEST(MessageTest, NegativeAndSpecialDoublesSurvive) {
  std::string payload;
  const double latency = -17.125;
  AppendShardLatencyPayload(&latency, 1, &payload);
  ShardLatencyUpdate update;
  update.count = 1;
  update.payload = WireSlice(payload.data(), payload.size());
  Message message;
  message.payload = update;
  const auto bytes = Serialize(message);
  const auto decoded = Deserialize(bytes);
  ASSERT_TRUE(decoded.has_value());
  const auto& decoded_update = std::get<ShardLatencyUpdate>(decoded->payload);
  ASSERT_EQ(decoded_update.count, 1u);
  double latency_out = 0.0;
  ASSERT_TRUE(DecodeShardLatencyUpdate(decoded_update, &latency_out));
  EXPECT_DOUBLE_EQ(latency_out, -17.125);
}

}  // namespace
}  // namespace lla::net

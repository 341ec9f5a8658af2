#include "net/message.h"

#include <cstring>

#include "model/section_codec.h"

namespace lla::net {
namespace {

// Tags 1 and 2 are retired (the former per-resource latency and price
// messages): Deserialize rejects them like any unknown tag, and a new kind
// must not reuse them.
constexpr std::uint8_t kTagRepairRequest = 3;
constexpr std::uint8_t kTagRepairResponse = 4;
constexpr std::uint8_t kTagShardLatencyUpdate = 5;
constexpr std::uint8_t kTagShardPriceUpdate = 6;

/// Entry-count ceiling for the positional shard payloads: rejects count
/// fields that would drive huge decode allocations before the size checks
/// can catch them (2^24 entries is ~134 MB of f64 — far beyond any shard).
constexpr std::uint32_t kMaxShardEntries = 1u << 24;

class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>* out) : out_(out) {}

  void U8(std::uint8_t v) { out_->push_back(v); }
  void U32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_->push_back((v >> (8 * i)) & 0xff);
  }
  void F64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) out_->push_back((bits >> (8 * i)) & 0xff);
  }
  void Bytes(const char* data, std::size_t size) {
    out_->insert(out_->end(), reinterpret_cast<const std::uint8_t*>(data),
                 reinterpret_cast<const std::uint8_t*>(data) + size);
  }

 private:
  std::vector<std::uint8_t>* out_;
};

class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& in) : in_(in) {}

  bool U8(std::uint8_t* v) {
    if (pos_ + 1 > in_.size()) return false;
    *v = in_[pos_++];
    return true;
  }
  bool U32(std::uint32_t* v) {
    if (pos_ + 4 > in_.size()) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<std::uint32_t>(in_[pos_++]) << (8 * i);
    }
    return true;
  }
  bool F64(double* v) {
    if (pos_ + 8 > in_.size()) return false;
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<std::uint64_t>(in_[pos_++]) << (8 * i);
    }
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  /// Remaining bytes (the positional payloads extend to the end of the
  /// message, so their length is implicit).
  std::size_t Remaining() const { return in_.size() - pos_; }
  const char* Here() const {
    return reinterpret_cast<const char*>(in_.data()) + pos_;
  }
  void Skip(std::size_t n) { pos_ += n; }
  bool AtEnd() const { return pos_ == in_.size(); }

 private:
  const std::vector<std::uint8_t>& in_;
  std::size_t pos_ = 0;
};

void AppendPackedBitset(const std::uint8_t* bits01, std::size_t count,
                        std::string* out) {
  for (std::size_t base = 0; base < count; base += 8) {
    unsigned char byte = 0;
    for (std::size_t j = 0; j < 8 && base + j < count; ++j) {
      if (bits01[base + j] != 0) byte |= static_cast<unsigned char>(1u << j);
    }
    out->push_back(static_cast<char>(byte));
  }
}

/// Little-endian `width`-byte store and load of the packed repair entries.
void AppendLittleEndian(std::uint64_t value, int width, std::string* out) {
  for (int i = 0; i < width; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

std::uint64_t LoadLittleEndian(const char* data, int width) {
  std::uint64_t value = 0;
  for (int i = 0; i < width; ++i) {
    value |= static_cast<std::uint64_t>(static_cast<unsigned char>(data[i]))
             << (8 * i);
  }
  return value;
}

}  // namespace

RepairEntry RepairResponse::entry(std::size_t i) const {
  const char* record = entries.data() + i * kRepairEntryBytes;
  RepairEntry out;
  out.subtask =
      SubtaskId(static_cast<std::uint32_t>(LoadLittleEndian(record, 4)));
  const std::uint64_t bits = LoadLittleEndian(record + 4, 8);
  std::memcpy(&out.latency_ms, &bits, sizeof(bits));
  return out;
}

void AppendRepairEntry(SubtaskId subtask, double latency_ms,
                       std::string* out) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &latency_ms, sizeof(bits));
  AppendLittleEndian(subtask.value(), 4, out);
  AppendLittleEndian(bits, 8, out);
}

void Outbox::Push(const Message& message) {
  Message& copy = messages_.emplace_back(message);
  offsets_.push_back(bytes_.size());
  if (WireSlice* view = PayloadBytes(&copy.payload)) {
    if (!view->empty()) bytes_.append(view->data(), view->size());
    *view = WireSlice(nullptr, view->size());
  }
}

Message Outbox::message(std::size_t i) const {
  Message bound = messages_[i];
  if (WireSlice* view = PayloadBytes(&bound.payload)) {
    *view = WireSlice(bytes_.data() + offsets_[i], view->size());
  }
  return bound;
}

PayloadSpan AppendShardLatencyPayload(const double* latencies,
                                      std::size_t count, std::string* out) {
  PayloadSpan span;
  span.offset = out->size();
  out->push_back('\0');  // encoding byte, patched after EncodeWords
  const std::uint8_t encoding = b1::EncodeWords(latencies, count, out);
  (*out)[span.offset] = static_cast<char>(encoding);
  span.length = static_cast<std::uint32_t>(out->size() - span.offset);
  return span;
}

PayloadSpan AppendShardPricePayload(const double* mu,
                                    const std::uint8_t* congested,
                                    const std::uint8_t* stale,
                                    std::size_t count, std::string* out) {
  bool any_stale = false;
  if (stale != nullptr) {
    for (std::size_t i = 0; i < count && !any_stale; ++i) {
      any_stale = stale[i] != 0;
    }
  }
  PayloadSpan span;
  span.offset = out->size();
  out->push_back(any_stale ? '\1' : '\0');  // flags
  out->push_back('\0');  // encoding byte, patched after EncodeWords
  const std::uint8_t encoding = b1::EncodeWords(mu, count, out);
  (*out)[span.offset + 1] = static_cast<char>(encoding);
  AppendPackedBitset(congested, count, out);
  if (any_stale) AppendPackedBitset(stale, count, out);
  span.length = static_cast<std::uint32_t>(out->size() - span.offset);
  return span;
}

bool DecodeShardLatencyUpdate(const ShardLatencyUpdate& update,
                              double* latencies) {
  const char* data = update.payload.data();
  const std::size_t size = update.payload.size();
  if (size < 1 || update.count > kMaxShardEntries) return false;
  std::size_t words = 0;
  return b1::DecodeWords<double>(data + 1, size - 1,
                                 static_cast<std::uint8_t>(data[0]),
                                 update.count, latencies, &words,
                                 /*error=*/nullptr) &&
         size == 1 + words;
}

bool DecodeShardPriceUpdate(const ShardPriceUpdate& update, double* mu,
                            ShardPriceBitsets* bits) {
  const char* data = update.payload.data();
  const std::size_t size = update.payload.size();
  if (size < 2 || update.count > kMaxShardEntries) return false;
  const auto flags = static_cast<std::uint8_t>(data[0]);
  if (flags > 1) return false;
  std::size_t words = 0;
  if (!b1::DecodeWords<double>(data + 2, size - 2,
                               static_cast<std::uint8_t>(data[1]),
                               update.count, mu, &words, /*error=*/nullptr)) {
    return false;
  }
  const std::size_t bitset = (update.count + 7) / 8;
  const std::size_t expected =
      2 + words + bitset + ((flags & 1) != 0 ? bitset : 0);
  if (size != expected) return false;
  bits->congested = data + 2 + words;
  bits->stale = (flags & 1) != 0 ? data + 2 + words + bitset : nullptr;
  return true;
}

std::vector<std::uint8_t> Serialize(const Message& message) {
  std::vector<std::uint8_t> bytes;
  Writer w(&bytes);
  w.U32(message.sender);
  w.U32(message.receiver);
  w.U32(message.incarnation);
  if (const auto* request = std::get_if<RepairRequest>(&message.payload)) {
    w.U8(kTagRepairRequest);
    w.U32(request->resource.value());
  } else if (const auto* shard_latency =
                 std::get_if<ShardLatencyUpdate>(&message.payload)) {
    w.U8(kTagShardLatencyUpdate);
    w.U32(shard_latency->host);
    w.U32(shard_latency->shard);
    w.U32(shard_latency->count);
    if (!shard_latency->payload.empty()) {
      w.Bytes(shard_latency->payload.data(), shard_latency->payload.size());
    }
  } else if (const auto* shard_price =
                 std::get_if<ShardPriceUpdate>(&message.payload)) {
    w.U8(kTagShardPriceUpdate);
    w.U32(shard_price->shard);
    w.U32(shard_price->epoch);
    w.U32(shard_price->count);
    if (!shard_price->payload.empty()) {
      w.Bytes(shard_price->payload.data(), shard_price->payload.size());
    }
  } else {
    const auto& repair = std::get<RepairResponse>(message.payload);
    w.U8(kTagRepairResponse);
    w.U32(repair.resource.value());
    w.U32(repair.task.value());
    w.F64(repair.mu);
    w.U32(repair.epoch);
    w.U8(repair.congested ? 1 : 0);
    w.U32(static_cast<std::uint32_t>(repair.entry_count()));
    if (!repair.entries.empty()) {
      w.Bytes(repair.entries.data(), repair.entries.size());
    }
  }
  return bytes;
}

std::optional<Message> Deserialize(const std::vector<std::uint8_t>& bytes) {
  Reader r(bytes);
  Message message;
  std::uint8_t tag = 0;
  if (!r.U32(&message.sender) || !r.U32(&message.receiver) ||
      !r.U32(&message.incarnation) || !r.U8(&tag)) {
    return std::nullopt;
  }
  if (tag == kTagRepairRequest) {
    RepairRequest request;
    std::uint32_t resource = 0;
    if (!r.U32(&resource)) return std::nullopt;
    request.resource = ResourceId(resource);
    message.payload = std::move(request);
  } else if (tag == kTagRepairResponse) {
    RepairResponse repair;
    std::uint32_t resource = 0, task = 0, count = 0;
    std::uint8_t congested = 0;
    if (!r.U32(&resource) || !r.U32(&task) || !r.F64(&repair.mu) ||
        !r.U32(&repair.epoch) || !r.U8(&congested) || congested > 1 ||
        !r.U32(&count)) {
      return std::nullopt;
    }
    repair.resource = ResourceId(resource);
    repair.task = TaskId(task);
    repair.congested = congested != 0;
    // Each entry takes 12 bytes: refuse a count the message cannot hold.
    if (count > r.Remaining() / kRepairEntryBytes) return std::nullopt;
    const std::size_t size = count * kRepairEntryBytes;
    repair.entries = WireSlice(r.Here(), size);
    r.Skip(size);
    message.payload = std::move(repair);
  } else if (tag == kTagShardLatencyUpdate) {
    ShardLatencyUpdate update;
    if (!r.U32(&update.host) || !r.U32(&update.shard) ||
        !r.U32(&update.count)) {
      return std::nullopt;
    }
    // The payload runs to the end of the message; validate it fully (a
    // structurally-broken payload must be rejected here, not at apply time)
    // with a null output, which stores and allocates nothing.
    const std::size_t remaining = r.Remaining();
    update.payload = WireSlice(r.Here(), remaining);
    if (!DecodeShardLatencyUpdate(update, nullptr)) return std::nullopt;
    r.Skip(remaining);
    message.payload = std::move(update);
  } else if (tag == kTagShardPriceUpdate) {
    ShardPriceUpdate update;
    if (!r.U32(&update.shard) || !r.U32(&update.epoch) ||
        !r.U32(&update.count)) {
      return std::nullopt;
    }
    const std::size_t remaining = r.Remaining();
    update.payload = WireSlice(r.Here(), remaining);
    ShardPriceBitsets bits;
    if (!DecodeShardPriceUpdate(update, nullptr, &bits)) return std::nullopt;
    r.Skip(remaining);
    message.payload = std::move(update);
  } else {
    return std::nullopt;
  }
  if (!r.AtEnd()) return std::nullopt;  // trailing garbage
  return message;
}

}  // namespace lla::net

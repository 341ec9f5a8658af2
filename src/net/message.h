// Wire messages of the distributed LLA protocol (paper Sec. 4.1).
//
// Controllers talk to shard agents, each hosting a contiguous range of one
// or more resources (DESIGN.md §7.10).  Four message kinds circulate:
//   ShardLatencyUpdate controller -> shard: the new predicted latencies of
//                      the controller's subtasks hosted on the shard (the
//                      input to the shard's price computation).
//   ShardPriceUpdate   shard -> controller: the new prices mu_r (and
//                      congestion flags) of the resources the controller
//                      uses on the shard.
//   RepairRequest      shard -> controller, for one restarted resource: "I
//                      lost this resource's state; send me yours"
//                      (crash-restart recovery, DESIGN.md §7.7).
//   RepairResponse     controller -> shard: absolute state — the
//                      controller's cached mu_r (with its epoch) plus the
//                      latencies of its subtasks hosted on that resource, so
//                      the shard can rebuild both halves of the resource's
//                      price computation without waiting a full gossip
//                      round.
//
// The shard updates are *positional* (DESIGN.md §7.11): shard membership is
// static, so both sides derive the same ordered per-(shard, client) entry
// list once at bind time and the wire carries only a count plus a
// b1-encoded value array — no resource or subtask ids.
//
// A Message is trivially copyable: its payload bytes are a WireSlice, a
// non-owning (pointer, length) view, and a RepairResponse's entries are a
// view of the packed 12-byte records its wire format uses.  A sender builds
// its messages in place in an Outbox (one per round lane): it appends each
// payload's bytes to the outbox's one byte buffer and constructs the message
// beside them, and the outbox records where the bytes sit instead of a
// view, since a later append may move the buffer.  InProcessBus::SendAll
// takes the outbox's bytes in one append and binds each message's view to
// its own copy at delivery, so a view a handler receives is valid for that
// handler call only, and the outbox may be cleared and refilled as soon as
// SendAll returns.  Deserialize returns views into the bytes it is given.
//
// Path prices never travel: each controller owns its task's paths and
// computes lambda_p locally (Sec. 4.3).  Every Message additionally carries
// the sender's incarnation number, stamped by the bus at Send time: a
// restarted endpoint bumps its incarnation, which lets receivers discard
// price messages that were in flight (or queued by stale epochs) from
// before the crash.  The bus never serializes a message: it accounts for
// bytes with WireSize, which computes the size of the binary wire format.
// Serialize and Deserialize define that format; tests check WireSize and
// the round trip against them.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/ids.h"

namespace lla::net {

/// A non-owning view of encoded payload bytes: a pointer and a length.
/// Whoever made the view keeps the bytes alive (the sender's encode buffer
/// until Send, the bus until the handler returns, the caller's input for
/// Deserialize).  Equality compares the referenced bytes, so a deserialized
/// copy compares equal to the original.
class WireSlice {
 public:
  WireSlice() = default;
  WireSlice(const char* data, std::size_t size) : data_(data), size_(size) {}

  const char* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool operator==(const WireSlice& other) const {
    if (size_ != other.size_) return false;
    if (size_ == 0) return true;
    return std::memcmp(data_, other.data_, size_) == 0;
  }

 private:
  const char* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Sent by a shard agent for one of its resources that restarted without
/// state: every client controller of the resource answers with a
/// RepairResponse.
struct RepairRequest {
  ResourceId resource;

  bool operator==(const RepairRequest&) const = default;
};

/// One (subtask, latency) entry of a RepairResponse, as its wire format
/// packs it: a u32 subtask id then an f64 latency, little-endian.
inline constexpr std::size_t kRepairEntryBytes = 12;
struct RepairEntry {
  SubtaskId subtask;
  double latency_ms = 0.0;
};

/// A controller's absolute view of one resource, sent in reply to a
/// RepairRequest: the cached price (so the restarted resource resumes from
/// the freshest surviving mu_r instead of 0) and the controller's current
/// subtask latencies on that resource (so its share-sum input is rebuilt
/// immediately).
struct RepairResponse {
  ResourceId resource;
  TaskId task;  ///< the responding controller's task
  double mu = 0.0;
  /// The shard epoch at which the controller cached `mu` — the restarted
  /// resource adopts the highest-epoch response it receives.
  std::uint32_t epoch = 0;
  bool congested = false;
  /// The controller's subtasks hosted on `resource` with their latencies:
  /// entry_count() packed kRepairEntryBytes records (AppendRepairEntry).
  WireSlice entries;

  std::size_t entry_count() const {
    return entries.size() / kRepairEntryBytes;
  }
  RepairEntry entry(std::size_t i) const;

  bool operator==(const RepairResponse&) const = default;
};

/// One controller's latencies for all of its subtasks hosted on one shard's
/// resources, in a single positional message.  The
/// receiver maps entry j onto the j-th element of its static per-client
/// membership list (the client's subtasks on the shard, in the client's
/// local subtask order); a count mismatch means a stale binding and the
/// message is ignored.
struct ShardLatencyUpdate {
  TaskId task;
  std::uint32_t shard = 0;
  /// Number of latency entries encoded in `payload`.
  std::uint32_t count = 0;
  /// [encoding u8][b1-encoded f64 words] (section_codec.h).
  WireSlice payload;

  bool operator==(const ShardLatencyUpdate&) const = default;
};

/// One shard agent's batched prices for one client: entry j is the j-th
/// resource of the static per-(shard, client) membership list (the client's
/// used resources on the shard, ascending).  A shard hosting many resources
/// collapses the per-round resource->controller traffic from O(resources)
/// messages to O(shards) per task, with one payload per client encoded
/// straight into the round lane's Outbox.
struct ShardPriceUpdate {
  std::uint32_t shard = 0;
  /// The shard's broadcast round (shared by all its resources).
  std::uint32_t epoch = 0;
  /// Number of price entries encoded in `payload`.
  std::uint32_t count = 0;
  /// [flags u8][encoding u8][b1-encoded f64 mu words]
  /// [congested bitset ceil(count/8)][stale bitset ditto, iff flags & 1].
  /// A stale bit marks an entry whose resource is crashed or awaiting
  /// repair (per-resource fault injection): the receiver keeps its cached
  /// price for that entry.
  WireSlice payload;

  bool operator==(const ShardPriceUpdate&) const = default;
};

using Payload = std::variant<RepairRequest, RepairResponse,
                             ShardLatencyUpdate, ShardPriceUpdate>;

struct Message {
  Message() = default;
  /// A message from `from` to `to` whose payload is a value-initialized P
  /// (Outbox::Add builds messages in place through it).
  template <typename P>
  Message(std::uint32_t from, std::uint32_t to, std::in_place_type_t<P> kind)
      : sender(from), receiver(to), payload(kind) {}

  std::uint32_t sender = 0;    ///< EndpointId of the origin
  std::uint32_t receiver = 0;  ///< EndpointId of the destination
  /// Incarnation of the sender, stamped by the bus at Send time (0 until
  /// the endpoint restarts).  Receivers drop price traffic from a lower
  /// incarnation than the highest they have seen from that peer.
  std::uint32_t incarnation = 0;
  Payload payload;

  bool operator==(const Message&) const = default;
};

// The bus copies messages as plain bytes and repoints their views.
static_assert(std::is_trivially_copyable_v<Message>);

/// The byte view a payload carries: the shard payload or the repair
/// entries.  Null for a RepairRequest, which carries none.
inline const WireSlice* PayloadBytes(const Payload& payload) {
  if (const auto* update = std::get_if<ShardLatencyUpdate>(&payload)) {
    return &update->payload;
  }
  if (const auto* update = std::get_if<ShardPriceUpdate>(&payload)) {
    return &update->payload;
  }
  if (const auto* repair = std::get_if<RepairResponse>(&payload)) {
    return &repair->entries;
  }
  return nullptr;
}
inline WireSlice* PayloadBytes(Payload* payload) {
  return const_cast<WireSlice*>(
      PayloadBytes(static_cast<const Payload&>(*payload)));
}

/// Number of bytes Serialize would produce (used for traffic accounting).
/// It reads only the payload view's length, so it also sizes a message
/// whose view an Outbox has not bound yet.
inline std::size_t WireSize(const Message& message) {
  constexpr std::size_t kHeader = 4 + 4 + 4 + 1;  // sender/receiver/inc/tag
  const WireSlice* bytes = PayloadBytes(message.payload);
  if (bytes == nullptr) return kHeader + 4;  // RepairRequest
  if (std::holds_alternative<RepairResponse>(message.payload)) {
    return kHeader + 4 + 4 + 8 + 4 + 1 + 4 + bytes->size();
  }
  return kHeader + 4 + 4 + 4 + bytes->size();  // shard updates
}

/// The (offset, length) of a payload appended to a byte buffer.
struct PayloadSpan {
  std::size_t offset = 0;
  std::uint32_t length = 0;
};

/// One sender's batch of messages with their payload bytes, admitted by
/// InProcessBus::SendAll in one pass (the coordinator keeps one per round
/// lane).  Senders build each message in place: they append its payload to
/// bytes() (AppendShardLatencyPayload and AppendShardPricePayload return
/// the span) and then Add the message, which records the span.  Inside the
/// outbox a message's payload view is unbound: its length is set and its
/// pointer is null, because a later append may move bytes().  message(i)
/// returns a copy bound to bytes(); the bus binds its own copy instead.
class Outbox {
 public:
  /// Appends a message from `from` to `to` whose payload is a P
  /// value-initialized in place, with payload bytes `span` of bytes(), and
  /// returns that payload for the caller to fill (the reference is valid
  /// until the next Add or Push).  A RepairRequest takes no span.
  template <typename P>
  P& Add(std::uint32_t from, std::uint32_t to, PayloadSpan span = {}) {
    Message& message = messages_.emplace_back(from, to, std::in_place_type<P>);
    offsets_.push_back(span.offset);
    if (WireSlice* view = PayloadBytes(&message.payload)) {
      *view = WireSlice(nullptr, span.length);
    }
    return *std::get_if<P>(&message.payload);
  }
  /// Appends a copy of `message` and of the bytes its payload views.
  void Push(const Message& message);

  /// The buffer the payloads are appended to.
  std::string* bytes() { return &bytes_; }
  const std::string& bytes() const { return bytes_; }
  /// The messages, their payload views unbound, in send order.
  const std::vector<Message>& messages() const { return messages_; }
  /// Where message i's payload bytes start in bytes().
  std::size_t offset(std::size_t i) const { return offsets_[i]; }
  /// Message i with its payload view bound to bytes() (valid until the
  /// next append).
  Message message(std::size_t i) const;

  std::size_t size() const { return messages_.size(); }
  /// Empties the outbox and keeps its capacity.
  void clear() {
    messages_.clear();
    offsets_.clear();
    bytes_.clear();
  }

 private:
  std::vector<Message> messages_;
  std::vector<std::size_t> offsets_;  ///< parallel to messages_
  std::string bytes_;
};

/// Appends one packed RepairResponse entry to *out.
void AppendRepairEntry(SubtaskId subtask, double latency_ms,
                       std::string* out);

/// Appends the ShardLatencyUpdate payload encoding of latencies[0..count)
/// to *out.
PayloadSpan AppendShardLatencyPayload(const double* latencies,
                                      std::size_t count, std::string* out);

/// Appends the ShardPriceUpdate payload encoding of mu[0..count) with the
/// per-entry congestion flags (one 0/1 byte each, packed to a bitset on the
/// wire).  `stale` is an optional parallel 0/1 array: null, or all-zero,
/// emits no stale bitset.
PayloadSpan AppendShardPricePayload(const double* mu,
                                    const std::uint8_t* congested,
                                    const std::uint8_t* stale,
                                    std::size_t count, std::string* out);

/// Decodes a latency payload into latencies[0..update.count); false on any
/// malformed payload (wrong size, bad encoding, bad run/sparse structure).
/// The caller sizes the output: `count` comes off the wire, so a receiver
/// checks it against its own positional list first.  A null `latencies`
/// validates the payload and stores nothing.
bool DecodeShardLatencyUpdate(const ShardLatencyUpdate& update,
                              double* latencies);

/// Packed bitset views into a decoded price payload (valid while the
/// bytes the message's WireSlice views live).  `stale` is null when absent.
struct ShardPriceBitsets {
  const char* congested = nullptr;
  const char* stale = nullptr;
};

/// Decodes a price payload: mu words into mu[0..update.count) (sized by the
/// caller, as above) and bitset pointers into *bits.  False on any
/// malformed payload.  A null `mu` validates the payload and stores no
/// word.
bool DecodeShardPriceUpdate(const ShardPriceUpdate& update, double* mu,
                            ShardPriceBitsets* bits);

/// Reads bit i of a packed little-endian bitset (bit j of byte i/8).
inline bool TestWireBit(const char* bits, std::size_t i) {
  return ((static_cast<unsigned char>(bits[i >> 3]) >> (i & 7)) & 1u) != 0;
}

/// Serializes to a compact binary representation (little-endian).
std::vector<std::uint8_t> Serialize(const Message& message);

/// Inverse of Serialize; nullopt on malformed input (truncation, bad tag).
/// The returned message's views point into `bytes`, which must outlive it.
std::optional<Message> Deserialize(const std::vector<std::uint8_t>& bytes);
/// A temporary would leave the views dangling.
std::optional<Message> Deserialize(std::vector<std::uint8_t>&&) = delete;

}  // namespace lla::net

// Shared word-level codec of the binary snapshot format "b1"
// (DESIGN.md §7.10) — extracted from serialization.cc so the wire path can
// reuse the exact encoders (DESIGN.md §7.11).
//
// A "section" is a contiguous array of fixed-width words (f64 / u32 / u8
// bit patterns) stored in one of three encodings, chosen by encoded size:
//   raw    — count * width contiguous little-endian words;
//   rle    — u64 run_count, then (u64 run_len, word) pairs;
//   sparse — u64 nnz, then (u32 index, word) pairs, strictly increasing.
// Every encoding preserves the exact bit patterns (zero means bit-pattern
// zero: -0.0 never qualifies as an implicit sparse zero), so a round-trip
// is bitwise-identical regardless of the encoding picked.
//
// The snapshot writer frames sections with a table (id/kind/count/offset/
// size); the wire messages frame them inline with a 1-byte encoding tag.
// Both call the Encode/Decode pair below, so the byte layouts stay in
// lockstep.  DecodeWords is the one routine that reads encoded words: it
// derives the encoded length itself and enforces every run and index rule,
// and with a null output it validates without storing a word, which is how
// the snapshot parser and net::Deserialize check input they do not keep.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>

namespace lla::b1 {

inline constexpr std::uint8_t kEncodingRaw = 0;
inline constexpr std::uint8_t kEncodingRle = 1;
inline constexpr std::uint8_t kEncodingSparse = 2;
/// Display names, indexed by encoding.
inline constexpr const char* kEncodingNames[] = {"raw", "rle", "sparse"};

template <typename T>
void PutWord(std::string* out, T value) {
  static_assert(std::endian::native == std::endian::little,
                "snapshot b1 writes native little-endian words");
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
T GetWord(const char* at) {
  T value;
  std::memcpy(&value, at, sizeof(value));
  return value;
}

template <typename T>
bool IsZeroWord(T v) {
  // Bit-pattern zero, not value zero: -0.0 must round-trip as -0.0, so it
  // does not qualify for the sparse encoding's implicit zeros.
  T zero{};
  return std::memcmp(&v, &zero, sizeof(T)) == 0;
}

/// Appends the size-minimal encoding of values[0..count) to *out and
/// returns the encoding chosen.  Exactly the choice rule the snapshot
/// writer has always used: rle when strictly smaller than raw and no larger
/// than sparse, else sparse when strictly smaller than raw, else raw.
template <typename T>
std::uint8_t EncodeWords(const T* values, std::size_t count,
                         std::string* out) {
  const std::size_t width = sizeof(T);
  std::size_t runs = count == 0 ? 0 : 1;
  std::size_t nnz = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (i > 0 && std::memcmp(&values[i], &values[i - 1], width) != 0) ++runs;
    if (!IsZeroWord(values[i])) ++nnz;
  }
  const std::size_t raw_size = count * width;
  const std::size_t rle_size = 8 + runs * (8 + width);
  const bool sparse_ok = count <= 0xffffffffull;
  const std::size_t sparse_size =
      sparse_ok ? 8 + nnz * (4 + width) : raw_size + 1;

  if (rle_size < raw_size && rle_size <= sparse_size) {
    PutWord<std::uint64_t>(out, runs);
    std::size_t i = 0;
    while (i < count) {
      std::size_t j = i + 1;
      while (j < count && std::memcmp(&values[j], &values[i], width) == 0) {
        ++j;
      }
      PutWord<std::uint64_t>(out, j - i);
      out->append(reinterpret_cast<const char*>(&values[i]), width);
      i = j;
    }
    return kEncodingRle;
  }
  if (sparse_ok && sparse_size < raw_size) {
    PutWord<std::uint64_t>(out, nnz);
    for (std::size_t i = 0; i < count; ++i) {
      if (IsZeroWord(values[i])) continue;
      PutWord<std::uint32_t>(out, static_cast<std::uint32_t>(i));
      out->append(reinterpret_cast<const char*>(&values[i]), width);
    }
    return kEncodingSparse;
  }
  out->append(reinterpret_cast<const char*>(values), raw_size);
  return kEncodingRaw;
}

/// Stores a rejection message when the caller asked for one.
inline bool RejectWords(std::string* error, const char* message) {
  if (error != nullptr) *error = message;
  return false;
}

/// The one reader of encoded words.  Reads `count` words of the given
/// encoding from the front of [at, at + avail) and sets *used to the bytes
/// they take: count * width for raw, derived from the leading run or nnz
/// word for rle and sparse.  Rejected, with a message in *error unless
/// `error` is null (the wire decoders pass null): an unknown encoding,
/// fewer than *used bytes, a run or nnz word above `count`, a zero-length
/// or overlong run, runs that do not sum to `count`, and sparse indices out
/// of range or not strictly increasing.  The words go to out[0..count) only
/// when `out` is not null, so a null `out` validates under exactly the
/// rules a decode applies, without storing or allocating.  The caller
/// compares *used with its frame: a snapshot section must use all of its
/// recorded size, a wire payload's bitsets follow the words.
template <typename T>
bool DecodeWords(const char* at, std::size_t avail, std::uint8_t encoding,
                 std::size_t count, T* out, std::size_t* used,
                 std::string* error) {
  const std::size_t width = sizeof(T);
  if (encoding == kEncodingRaw) {
    if (count > avail / width) {
      return RejectWords(error,
                         "raw section too small for its element count");
    }
    *used = count * width;
    if (out != nullptr) std::memcpy(out, at, *used);
    return true;
  }
  if (encoding == kEncodingRle) {
    if (avail < 8) {
      return RejectWords(error, "rle section too small for its run count");
    }
    const std::uint64_t runs = GetWord<std::uint64_t>(at);
    // Each run covers >= 1 element, so runs <= count; the size test
    // divides, so no run word can overflow it.
    if (runs > count || runs > (avail - 8) / (8 + width)) {
      return RejectWords(
          error, "rle run count exceeds the element count or the bytes");
    }
    *used = 8 + runs * (8 + width);
    std::size_t filled = 0;
    const char* run = at + 8;
    for (std::uint64_t i = 0; i < runs; ++i) {
      const std::uint64_t len = GetWord<std::uint64_t>(run);
      if (len == 0 || len > count - filled) {
        return RejectWords(error,
                           "rle runs do not sum to the element count");
      }
      if (out != nullptr) {
        T value;
        std::memcpy(&value, run + 8, width);
        std::fill_n(out + filled, len, value);
      }
      filled += len;
      run += 8 + width;
    }
    if (filled != count) {
      return RejectWords(error, "rle runs do not sum to the element count");
    }
    return true;
  }
  if (encoding == kEncodingSparse) {
    if (avail < 8) {
      return RejectWords(error,
                         "sparse section too small for its entry count");
    }
    const std::uint64_t nnz = GetWord<std::uint64_t>(at);
    if (nnz > count || nnz > (avail - 8) / (4 + width)) {
      return RejectWords(
          error,
          "sparse entry count exceeds the element count or the bytes");
    }
    *used = 8 + nnz * (4 + width);
    if (out != nullptr) std::fill(out, out + count, T{});
    const char* pair = at + 8;
    std::uint64_t prev_plus_one = 0;
    for (std::uint64_t i = 0; i < nnz; ++i) {
      const std::uint32_t index = GetWord<std::uint32_t>(pair);
      if (index >= count || index < prev_plus_one) {
        return RejectWords(
            error, "sparse section indices not strictly increasing in range");
      }
      if (out != nullptr) std::memcpy(&out[index], pair + 4, width);
      prev_plus_one = static_cast<std::uint64_t>(index) + 1;
      pair += 4 + width;
    }
    return true;
  }
  return RejectWords(error, "unknown section encoding");
}

}  // namespace lla::b1

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
// size); the wire messages frame them inline with a 1-byte encoding tag and
// derive the encoded length from the leading run/nnz word.  Both call the
// Encode/Decode pair below, so the byte layouts stay in lockstep.
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

/// The encoded byte length of a section whose frame does not record it (the
/// wire messages): derived from `count` for raw, from the leading run/nnz
/// word otherwise.  False when `avail` bytes cannot hold the section or the
/// encoding byte is unknown.
template <typename T>
bool EncodedWordsSize(const char* at, std::size_t avail, std::uint8_t encoding,
                      std::size_t count, std::size_t* size) {
  const std::size_t width = sizeof(T);
  if (encoding == kEncodingRaw) {
    *size = count * width;
  } else if (encoding == kEncodingRle) {
    if (avail < 8) return false;
    const std::uint64_t runs = GetWord<std::uint64_t>(at);
    if (runs > count) return false;  // each run covers >= 1 element
    *size = 8 + static_cast<std::size_t>(runs) * (8 + width);
  } else if (encoding == kEncodingSparse) {
    if (avail < 8) return false;
    const std::uint64_t nnz = GetWord<std::uint64_t>(at);
    if (nnz > count) return false;
    *size = 8 + static_cast<std::size_t>(nnz) * (4 + width);
  } else {
    return false;
  }
  return *size <= avail;
}

/// Decodes `count` words of the given encoding from [at, at + size) into
/// out[0..count).  `size` must be the exact encoded length; every malformed
/// shape (size mismatch, zero-length or overlong runs, out-of-range or
/// non-increasing sparse indices) is rejected with a message.
template <typename T>
bool DecodeWords(const char* at, std::size_t size, std::uint8_t encoding,
                 std::size_t count, T* out, std::string* error) {
  const std::size_t width = sizeof(T);
  if (encoding == kEncodingRaw) {
    if (size != count * width) {
      *error = "raw section size does not match element count";
      return false;
    }
    std::memcpy(out, at, size);
    return true;
  }
  if (encoding == kEncodingRle) {
    if (size < 8) {
      *error = "rle section too small for its run count";
      return false;
    }
    const std::uint64_t runs = GetWord<std::uint64_t>(at);
    // Each run covers >= 1 element, so runs <= count; with count capped by
    // the caller this also keeps the size product below u64 overflow.
    if (runs > count || size != 8 + runs * (8 + width)) {
      *error = "rle section size does not match run count";
      return false;
    }
    std::size_t filled = 0;
    const char* run = at + 8;
    for (std::uint64_t i = 0; i < runs; ++i) {
      const std::uint64_t len = GetWord<std::uint64_t>(run);
      if (len == 0 || len > count - filled) {
        *error = "rle runs do not sum to the element count";
        return false;
      }
      T value;
      std::memcpy(&value, run + 8, width);
      std::fill_n(out + filled, len, value);
      filled += len;
      run += 8 + width;
    }
    if (filled != count) {
      *error = "rle runs do not sum to the element count";
      return false;
    }
    return true;
  }
  if (encoding == kEncodingSparse) {
    if (size < 8) {
      *error = "sparse section too small for its entry count";
      return false;
    }
    const std::uint64_t nnz = GetWord<std::uint64_t>(at);
    if (size != 8 + nnz * (4 + width) || nnz > count) {
      *error = "sparse section size does not match entry count";
      return false;
    }
    std::fill(out, out + count, T{});
    const char* pair = at + 8;
    std::uint64_t prev_plus_one = 0;
    for (std::uint64_t i = 0; i < nnz; ++i) {
      const std::uint32_t index = GetWord<std::uint32_t>(pair);
      if (index >= count || index + 1 <= prev_plus_one) {
        *error = "sparse section indices not strictly increasing in range";
        return false;
      }
      std::memcpy(&out[index], pair + 4, width);
      prev_plus_one = static_cast<std::uint64_t>(index) + 1;
      pair += 4 + width;
    }
    return true;
  }
  *error = "unknown section encoding";
  return false;
}

/// DecodeWords' validation without the output writes: checks that
/// [at, at + size) is a structurally well-formed encoding of `count` words.
/// The zero-copy snapshot parse runs this once up front so materialization
/// (possibly much later, straight into the consumer's buffers) cannot fail.
/// Error strings are identical to DecodeWords'.
template <typename T>
bool ValidateWords(const char* at, std::size_t size, std::uint8_t encoding,
                   std::size_t count, std::string* error) {
  const std::size_t width = sizeof(T);
  if (encoding == kEncodingRaw) {
    if (size != count * width) {
      *error = "raw section size does not match element count";
      return false;
    }
    return true;
  }
  if (encoding == kEncodingRle) {
    if (size < 8) {
      *error = "rle section too small for its run count";
      return false;
    }
    const std::uint64_t runs = GetWord<std::uint64_t>(at);
    if (runs > count || size != 8 + runs * (8 + width)) {
      *error = "rle section size does not match run count";
      return false;
    }
    std::size_t filled = 0;
    const char* run = at + 8;
    for (std::uint64_t i = 0; i < runs; ++i) {
      const std::uint64_t len = GetWord<std::uint64_t>(run);
      if (len == 0 || len > count - filled) {
        *error = "rle runs do not sum to the element count";
        return false;
      }
      filled += len;
      run += 8 + width;
    }
    if (filled != count) {
      *error = "rle runs do not sum to the element count";
      return false;
    }
    return true;
  }
  if (encoding == kEncodingSparse) {
    if (size < 8) {
      *error = "sparse section too small for its entry count";
      return false;
    }
    const std::uint64_t nnz = GetWord<std::uint64_t>(at);
    if (size != 8 + nnz * (4 + width) || nnz > count) {
      *error = "sparse section size does not match entry count";
      return false;
    }
    const char* pair = at + 8;
    std::uint64_t prev_plus_one = 0;
    for (std::uint64_t i = 0; i < nnz; ++i) {
      const std::uint32_t index = GetWord<std::uint32_t>(pair);
      if (index >= count || index + 1 <= prev_plus_one) {
        *error = "sparse section indices not strictly increasing in range";
        return false;
      }
      prev_plus_one = static_cast<std::uint64_t>(index) + 1;
      pair += 4 + width;
    }
    return true;
  }
  *error = "unknown section encoding";
  return false;
}

}  // namespace lla::b1

// IdIndex: the position of an id in a fixed ascending set of ids, in O(1).
//
// The runtime's agents route each shard message by an id that comes off the
// wire: a task id at a shard agent, a shard id at a task controller.  The
// index covers the ids from the set's first to its last with one bit per id
// and a running member count per 64 ids, so a lookup is a bounds check, one
// 16-byte word read and a popcount.  It searches nothing, and it holds two
// bits per id of that span instead of an int (a shard agent of a
// one-shard-per-resource deployment spans nearly every task id).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace lla {

class IdIndex {
 public:
  IdIndex() = default;
  /// `ids` must be ascending and distinct.
  explicit IdIndex(const std::vector<std::uint32_t>& ids) {
    if (ids.empty()) return;
    base_ = ids.front();
    span_ = static_cast<std::size_t>(ids.back() - base_) + 1;
    words_.assign((span_ + 63) / 64, Word{});
    for (const std::uint32_t id : ids) {
      const std::uint32_t k = id - base_;
      words_[k >> 6].bits |= std::uint64_t{1} << (k & 63);
    }
    std::uint32_t rank = 0;
    for (Word& word : words_) {
      word.rank = rank;
      rank += static_cast<std::uint32_t>(std::popcount(word.bits));
    }
  }

  /// The position of `id` in the set, or -1 when it is not a member: below
  /// the first id (the difference wraps past the span), above the last, or
  /// a hole between them.
  int Find(std::uint32_t id) const {
    const std::uint32_t k = id - base_;
    if (k >= span_) return -1;
    const Word& word = words_[k >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (k & 63);
    if ((word.bits & bit) == 0) return -1;
    return static_cast<int>(word.rank +
                            static_cast<std::uint32_t>(
                                std::popcount(word.bits & (bit - 1))));
  }

 private:
  struct Word {
    std::uint64_t bits = 0;  ///< bit j: id base_ + 64 i + j is a member
    std::uint32_t rank = 0;  ///< members in the words before this one
  };

  std::uint32_t base_ = 0;
  std::size_t span_ = 0;
  std::vector<Word> words_;
};

}  // namespace lla

// Golden tests for the combine arena's sparse-emit scan
// (kernels::CollectNonzeroWords): every hot-word placement, unaligned begin
// cursors, dense and mixed patterns, and empty ranges, each checked against a
// naive single-pass reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/kernels/kernels.h"

namespace qo::kernels {
namespace {

/// Straightforward single-pass reference collector.
std::vector<uint32_t> CollectReference(const std::vector<uint64_t>& words,
                                       size_t begin, size_t end) {
  std::vector<uint32_t> out;
  for (size_t w = begin; w < end; ++w) {
    if (words[w] != 0) out.push_back(static_cast<uint32_t>(w));
  }
  return out;
}

TEST(CollectNonzeroWordsTest, MatchesReferenceAcrossBlockBoundaries) {
  constexpr size_t kWords = 21;  // odd length, unaligned cursors below
  // Every single-hot-word placement, plus unaligned begin cursors.
  for (size_t hot = 0; hot < kWords; ++hot) {
    std::vector<uint64_t> words(kWords, 0);
    words[hot] = uint64_t{1} << (hot % 64);
    for (size_t begin : {size_t{0}, hot, hot + 1, (hot >= 3 ? hot - 3 : 0)}) {
      const std::vector<uint32_t> expect =
          CollectReference(words, begin, kWords);
      std::vector<uint32_t> got(kWords, 0xffffffffu);
      const size_t n =
          CollectNonzeroWords(words.data(), begin, kWords, got.data());
      ASSERT_EQ(n, expect.size()) << "hot=" << hot << " begin=" << begin;
      for (size_t k = 0; k < n; ++k) {
        EXPECT_EQ(got[k], expect[k]) << "hot=" << hot << " begin=" << begin;
      }
    }
  }
}

TEST(CollectNonzeroWordsTest, DensePatternsAndMixedBlocks) {
  // Patterns exercise all-hot, alternating, every-fourth, tail-only,
  // head-only and pseudo-random hot words over an odd-length range.
  constexpr size_t kWords = 27;
  constexpr uint64_t kMix = 0x9E3779B97F4A7C15ULL;  // pseudo-random pattern
  for (int pattern = 0; pattern < 6; ++pattern) {
    std::vector<uint64_t> words(kWords, 0);
    for (size_t w = 0; w < kWords; ++w) {
      const bool hot = pattern == 0   ? true
                       : pattern == 1 ? (w % 2 == 0)
                       : pattern == 2 ? (w % 4 == 3)
                       : pattern == 3 ? (w >= 24)
                       : pattern == 4 ? (w < 2)
                                      : ((w * kMix) >> 63) != 0;
      if (hot) words[w] = static_cast<uint64_t>(w * 2654435761u) | 1u;
    }
    const std::vector<uint32_t> expect = CollectReference(words, 0, kWords);
    std::vector<uint32_t> got(kWords, 0xffffffffu);
    const size_t n = CollectNonzeroWords(words.data(), 0, kWords, got.data());
    ASSERT_EQ(n, expect.size()) << "pattern=" << pattern;
    for (size_t k = 0; k < n; ++k) {
      EXPECT_EQ(got[k], expect[k]) << "pattern=" << pattern;
    }
  }
}

TEST(CollectNonzeroWordsTest, AllZeroAndEmptyRanges) {
  std::vector<uint64_t> words(12, 0);
  uint32_t out[12];
  EXPECT_EQ(CollectNonzeroWords(words.data(), 0, words.size(), out), 0u);
  EXPECT_EQ(CollectNonzeroWords(words.data(), 5, 5, out), 0u);
}

}  // namespace
}  // namespace qo::kernels

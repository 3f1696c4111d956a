// Shared helpers of the data plane.
//
// The data plane (A/A execution, bandit scoring, feature combination, NDV
// capping) is plain scalar C++ with one implementation per operation and no
// runtime dispatch. What lives here is the one bit-scan loop that is its own
// unit: the combine arena's sparse-emit scan, golden-tested in
// tests/kernels_test.cc.
#ifndef QO_COMMON_KERNELS_KERNELS_H_
#define QO_COMMON_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace qo::kernels {

/// Writes the indices of every nonzero word in [begin, end) to `out` in
/// ascending order and returns how many were written. `out` must hold at
/// least end - begin entries. One call over the combine arena's summary
/// bitmap finds every region with a live word.
inline size_t CollectNonzeroWords(const uint64_t* words, size_t begin,
                                  size_t end, uint32_t* out) {
  size_t n = 0;
  for (size_t w = begin; w < end; ++w) {
    if (words[w] != 0) out[n++] = static_cast<uint32_t>(w);
  }
  return n;
}

/// Names the data-plane implementation for run reports. There is only one
/// ("scalar"); the descriptor remains because the repository benchmark
/// prints it in its run context.
struct Implementation {
  const char* name;
};

inline Implementation Active() { return {"scalar"}; }

}  // namespace qo::kernels

#endif  // QO_COMMON_KERNELS_KERNELS_H_

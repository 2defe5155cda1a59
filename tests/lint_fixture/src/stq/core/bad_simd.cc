// Positive cases for the simd-confinement check: raw intrinsics are
// banned everywhere under src/stq; kernels are portable loops in
// core/match_kernels.cc. A mention of _mm256_loadu_pd in a comment must
// not fire.

#include <immintrin.h>
#include <arm_neon.h>

namespace stq {

double SumFour(const double* p) {
  __m256d v = _mm256_loadu_pd(p);
  double out[4];
  _mm256_storeu_pd(out, v);
  return out[0] + out[1] + out[2] + out[3];
}

int NeonVectorType() {
  float32x4_t lanes{};
  return static_cast<int>(sizeof(lanes));
}

// Waivers apply here like everywhere else.
// stq-lint: allow(simd-confinement/intrinsics): negative case, test only
int waived = static_cast<int>(sizeof(__m128i));

}  // namespace stq

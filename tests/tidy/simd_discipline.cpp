// Negative fixture for iprism-simd-discipline.
//
// tools/check_tidy_fixtures.sh asserts clang-tidy flags exactly the
// `CHECK-FLAG` lines. The check bans vendor intrinsics headers,
// vectorization-forcing pragmas, and per-function target attributes
// everywhere (its default allowlist, src/dynamics/*_batch*, matches no file)
// — so every use below must fire; the plain loop, the non-SIMD pragma, and
// the unannotated function must not.

#include <immintrin.h>  // CHECK-FLAG

void banned_pragmas(float* a, const float* b, int n) {
#pragma omp simd  // CHECK-FLAG
  for (int i = 0; i < n; ++i) a[i] += b[i];
#pragma GCC ivdep  // CHECK-FLAG
  for (int i = 0; i < n; ++i) a[i] += b[i];
#pragma clang loop vectorize(enable)  // CHECK-FLAG
  for (int i = 0; i < n; ++i) a[i] += b[i];
#pragma clang loop interleave_count(4)  // CHECK-FLAG
  for (int i = 0; i < n; ++i) a[i] += b[i];
}

__attribute__((target("avx2"))) void banned_target(float* a, int n) {  // CHECK-FLAG
  for (int i = 0; i < n; ++i) a[i] *= 2.0F;
}

// --- must stay silent ------------------------------------------------------

// A pragma that has nothing to do with vectorization.
#pragma pack(push, 1)
struct Packed {
  char c;
  int i;
};
#pragma pack(pop)

void plain_loop(float* a, const float* b, int n) {
  for (int i = 0; i < n; ++i) a[i] += b[i];
}

// iprism-simd-discipline
//
// Flags SIMD back doors outside the batched kernel TUs: vendor intrinsics
// headers (immintrin.h, arm_neon.h, ...), vectorization-forcing pragmas
// (`#pragma omp simd`, `#pragma GCC ivdep`, `#pragma clang loop
// vectorize/interleave`), and per-function target attributes
// (`__attribute__((target(...)))`).
//
// The reach-tube kernels are portable fixed-width lane loops whose
// vectorization is governed solely by the IPRISM_ENABLE_SIMD build option,
// and both settings must produce bit-identical tubes (DESIGN.md §13). Any
// of the constructs above sidesteps that single switch — hand-vectorized
// code can re-round intermediates, forced vectorization can reassociate
// reductions, and target attributes fork codegen per CPU — so they are
// confined to the kernel TUs where the determinism contract is enforced by
// the GeomKernelIdentity suite.
//
// Options:
//   AllowedFilesRegex — files exempt from the ban (default: the batch
//                       kernel TUs, src/dynamics/*_batch*).
#ifndef IPRISM_TIDY_PLUGIN_SIMD_DISCIPLINE_CHECK_H
#define IPRISM_TIDY_PLUGIN_SIMD_DISCIPLINE_CHECK_H

#include "clang-tidy/ClangTidyCheck.h"
#include "llvm/Support/Regex.h"

#include <string>

namespace clang::tidy::iprism {

class SimdDisciplineCheck : public ClangTidyCheck {
public:
  SimdDisciplineCheck(llvm::StringRef Name, ClangTidyContext *Context);

  bool isLanguageVersionSupported(const LangOptions &LangOpts) const override {
    return LangOpts.CPlusPlus;
  }
  void registerPPCallbacks(const SourceManager &SM, Preprocessor *PP,
                           Preprocessor *ModuleExpanderPP) override;
  void registerMatchers(ast_matchers::MatchFinder *Finder) override;
  void check(const ast_matchers::MatchFinder::MatchResult &Result) override;
  void storeOptions(ClangTidyOptions::OptionMap &Opts) override;

  /// Exposed for the preprocessor callbacks (defined in the .cpp), which
  /// report include/pragma violations through the same path filter.
  const llvm::Regex &allowedFiles() const { return AllowedFiles; }

private:
  const std::string AllowedFilesRegex;
  llvm::Regex AllowedFiles;
};

} // namespace clang::tidy::iprism

#endif // IPRISM_TIDY_PLUGIN_SIMD_DISCIPLINE_CHECK_H

// iprism-simd-discipline
//
// Flags SIMD back doors: vendor intrinsics headers (immintrin.h,
// arm_neon.h, ...), vectorization-forcing pragmas (`#pragma omp simd`,
// `#pragma GCC ivdep`, `#pragma clang loop vectorize/interleave`), and
// per-function target attributes (`__attribute__((target(...)))`).
//
// The reach-tube step is one portable scalar function, shared by
// BicycleModel::step and the lane loop of dynamics::step_batch, compiled
// with -ffp-contract=off so its bits are fixed (DESIGN.md §13). Any of the
// constructs above would fork that arithmetic — hand-vectorized code can
// re-round intermediates, forced vectorization can reassociate reductions,
// and target attributes fork codegen per CPU — so they are banned.
//
// Options:
//   AllowedFilesRegex — files exempt from the ban. The default,
//                       src/dynamics/*_batch*, matches no file in the tree,
//                       so the ban covers the whole tree.
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

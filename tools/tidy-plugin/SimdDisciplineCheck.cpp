#include "SimdDisciplineCheck.h"

#include "IprismCheckCommon.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"
#include "clang/Basic/SourceManager.h"
#include "clang/Lex/PPCallbacks.h"
#include "clang/Lex/Pragma.h"
#include "clang/Lex/Preprocessor.h"
#include "llvm/ADT/StringRef.h"
#include "llvm/Config/llvm-config.h"

#include <memory>

using namespace clang::ast_matchers;

namespace clang::tidy::iprism {
namespace {

/// Vendor/architecture intrinsics headers. The *intrin*.h pattern covers the
/// whole x86 family (immintrin, x86intrin, xmmintrin ... avx512vlintrin) plus
/// MSVC's intrin.h; the named entries cover ARM, POWER, and RISC-V.
bool isIntrinsicsHeader(llvm::StringRef FileName) {
  static const llvm::Regex Banned("(^|/)("
                                  "[a-z0-9_]*intrin[a-z0-9_]*\\.h|"
                                  "arm_neon\\.h|arm_sve\\.h|arm_fp16\\.h|arm_acle\\.h|"
                                  "altivec\\.h|riscv_vector\\.h"
                                  ")$");
  return Banned.match(FileName);
}

/// Vectorization-forcing pragma directives. Matched against the raw source
/// line so the whole directive text is visible regardless of how the host
/// preprocessor tokenizes (or ignores) the pragma namespace.
bool isVectorizePragma(llvm::StringRef Line) {
  static const llvm::Regex OmpSimd("^#[ \t]*pragma[ \t]+omp[ \t].*simd");
  static const llvm::Regex GccIvdep("^#[ \t]*pragma[ \t]+GCC[ \t]+ivdep");
  static const llvm::Regex ClangLoop(
      "^#[ \t]*pragma[ \t]+clang[ \t]+loop[ \t].*(vectorize|interleave)");
  return OmpSimd.match(Line) || GccIvdep.match(Line) || ClangLoop.match(Line);
}

class SimdDisciplinePPCallbacks : public PPCallbacks {
public:
  SimdDisciplinePPCallbacks(SimdDisciplineCheck &Check, const SourceManager &SM)
      : Check(Check), SM(SM) {}

  // PPCallbacks::InclusionDirective changed signature across LLVM majors:
  // <=14 passes const FileEntry*, 15 Optional<FileEntryRef>, 16-18
  // OptionalFileEntryRef, and 19 split `Imported` into
  // (SuggestedModule, ModuleImported). Only HashLoc and FileName matter
  // here; every variant forwards to handleInclude.
#if LLVM_VERSION_MAJOR >= 19
  void InclusionDirective(SourceLocation HashLoc, const Token &IncludeTok,
                          StringRef FileName, bool IsAngled,
                          CharSourceRange FilenameRange, OptionalFileEntryRef File,
                          StringRef SearchPath, StringRef RelativePath,
                          const Module *SuggestedModule, bool ModuleImported,
                          SrcMgr::CharacteristicKind FileType) override {
    handleInclude(HashLoc, FileName);
  }
#elif LLVM_VERSION_MAJOR >= 16
  void InclusionDirective(SourceLocation HashLoc, const Token &IncludeTok,
                          StringRef FileName, bool IsAngled,
                          CharSourceRange FilenameRange, OptionalFileEntryRef File,
                          StringRef SearchPath, StringRef RelativePath,
                          const Module *Imported,
                          SrcMgr::CharacteristicKind FileType) override {
    handleInclude(HashLoc, FileName);
  }
#elif LLVM_VERSION_MAJOR == 15
  void InclusionDirective(SourceLocation HashLoc, const Token &IncludeTok,
                          StringRef FileName, bool IsAngled,
                          CharSourceRange FilenameRange, Optional<FileEntryRef> File,
                          StringRef SearchPath, StringRef RelativePath,
                          const Module *Imported,
                          SrcMgr::CharacteristicKind FileType) override {
    handleInclude(HashLoc, FileName);
  }
#else
  void InclusionDirective(SourceLocation HashLoc, const Token &IncludeTok,
                          StringRef FileName, bool IsAngled,
                          CharSourceRange FilenameRange, const FileEntry *File,
                          StringRef SearchPath, StringRef RelativePath,
                          const Module *Imported,
                          SrcMgr::CharacteristicKind FileType) override {
    handleInclude(HashLoc, FileName);
  }
#endif

  void PragmaDirective(SourceLocation Loc, PragmaIntroducerKind Introducer) override {
    if (Introducer != PIK_HashPragma)
      return;
    if (!shouldReport(SM, Loc, Check.allowedFiles()))
      return;
    bool Invalid = false;
    const char *Data = SM.getCharacterData(Loc, &Invalid);
    if (Invalid)
      return;
    const char *End = Data;
    while (*End != '\0' && *End != '\n' && *End != '\r')
      ++End;
    if (!isVectorizePragma(llvm::StringRef(Data, static_cast<size_t>(End - Data))))
      return;
    Check.diag(Loc,
               "vectorization-forcing pragma: forced vectorization can "
               "reassociate or re-round, breaking the bit-identity contract "
               "(DESIGN.md §13)");
  }

private:
  void handleInclude(SourceLocation HashLoc, llvm::StringRef FileName) {
    if (!isIntrinsicsHeader(FileName))
      return;
    if (!shouldReport(SM, HashLoc, Check.allowedFiles()))
      return;
    Check.diag(HashLoc,
               "vendor intrinsics header: hand-vectorized code forks the "
               "one bicycle step and breaks the bit-identity contract "
               "(DESIGN.md §13)");
  }

  SimdDisciplineCheck &Check;
  const SourceManager &SM;
};

} // namespace

SimdDisciplineCheck::SimdDisciplineCheck(llvm::StringRef Name, ClangTidyContext *Context)
    : ClangTidyCheck(Name, Context),
      AllowedFilesRegex(Options.get(
          "AllowedFilesRegex",
          "/src/dynamics/[^/]*_batch[^/]*\\.(hpp|cpp)$")),
      AllowedFiles(AllowedFilesRegex) {}

void SimdDisciplineCheck::storeOptions(ClangTidyOptions::OptionMap &Opts) {
  Options.store(Opts, "AllowedFilesRegex", AllowedFilesRegex);
}

void SimdDisciplineCheck::registerPPCallbacks(const SourceManager &SM, Preprocessor *PP,
                                              Preprocessor *ModuleExpanderPP) {
  PP->addPPCallbacks(std::make_unique<SimdDisciplinePPCallbacks>(*this, SM));
}

void SimdDisciplineCheck::registerMatchers(MatchFinder *Finder) {
  // __attribute__((target(...))) / [[gnu::target(...)]] forks codegen per
  // CPU feature set, per function.
  Finder->addMatcher(functionDecl(hasAttr(attr::Target)).bind("target-fn"), this);
}

void SimdDisciplineCheck::check(const MatchFinder::MatchResult &Result) {
  const auto *Fn = Result.Nodes.getNodeAs<FunctionDecl>("target-fn");
  if (Fn == nullptr)
    return;
  const SourceManager &SM = *Result.SourceManager;
  if (!shouldReport(SM, Fn->getLocation(), AllowedFiles))
    return;
  diag(Fn->getLocation(),
       "per-function target attribute: feature-gated codegen forks the "
       "one bicycle step and breaks the bit-identity contract "
       "(DESIGN.md §13)");
}

} // namespace clang::tidy::iprism

// Loadable clang-tidy module exposing the iprism-* checks.
//
//   clang-tidy --load=libIprismTidyChecks.so --checks=-*,iprism-* ...
//
// Four of these checks are the compiled successors of rules that
// tools/iprism_lint.py used to enforce with regexes (see each check's
// header for what it adds over the regex); iprism-simd-discipline guards
// the bicycle step's determinism contract (DESIGN.md §13). tools/run_tidy.sh loads the
// plugin automatically when the `tidy` CMake preset has built it, and the
// `lint.tidy-plugin` / `lint.tidy-fixtures` ctest targets gate on it.
#include "FloatEqCheck.h"
#include "NoUnorderedInCoreCheck.h"
#include "RawThreadCheck.h"
#include "RngDisciplineCheck.h"
#include "SessionDisciplineCheck.h"
#include "SimdDisciplineCheck.h"
#include "clang-tidy/ClangTidyModule.h"
#include "clang-tidy/ClangTidyModuleRegistry.h"

namespace clang::tidy {
namespace iprism {

class IprismModule : public ClangTidyModule {
public:
  void addCheckFactories(ClangTidyCheckFactories &CheckFactories) override {
    CheckFactories.registerCheck<NoUnorderedInCoreCheck>(
        "iprism-no-unordered-in-core");
    CheckFactories.registerCheck<RngDisciplineCheck>("iprism-rng-discipline");
    CheckFactories.registerCheck<FloatEqCheck>("iprism-float-eq");
    CheckFactories.registerCheck<RawThreadCheck>("iprism-raw-thread");
    CheckFactories.registerCheck<SimdDisciplineCheck>("iprism-simd-discipline");
    CheckFactories.registerCheck<SessionDisciplineCheck>(
        "iprism-session-discipline");
  }
};

} // namespace iprism

// Static registration: the loader runs this translation unit's initializers
// when the shared object is dlopen'd by the host clang-tidy binary.
static ClangTidyModuleRegistry::Add<iprism::IprismModule>
    IprismModuleInit("iprism-module",
                     "iPrism repo-invariant checks (compiled successors of "
                     "tools/iprism_lint.py rules).");

} // namespace clang::tidy

/**
 * @file
 * Table XI: average compilation time of the baseline (runtime
 * branching) vs HERO-Sign (compile-time constexpr-if branching),
 * from the documented compile-cost model.
 */

#include "bench_util.hh"
#include "gpusim/compile_model.hh"

using namespace herosign;
using namespace herosign::bench;
using gpu::compileSeconds;
using gpu::CompileStrategy;

int
main(int argc, char **argv)
{
    Options o = Options::parse(argc, argv);

    struct PaperRow
    {
        const char *set;
        double base, hero;
    };
    const PaperRow paper[] = {
        {"SPHINCS+-128f", 18.68, 14.61},
        {"SPHINCS+-192f", 23.25, 21.72},
        {"SPHINCS+-256f", 24.19, 19.18},
    };

    TextTable t({"Set", "Baseline s", "HERO-Sign s", "Speedup",
                 "paper Base", "paper HERO", "paper Speedup"});
    for (const auto &row : paper) {
        auto kernels = gpu::sphincsKernelSizes(row.set);
        const double base = compileSeconds(
            CompileStrategy::BaselineRuntimeBranch, kernels);
        const double hero = compileSeconds(
            CompileStrategy::CompileTimeBranch, kernels);
        t.addRow({row.set, fmtF(base), fmtF(hero), fmtX(base / hero),
                  fmtF(row.base), fmtF(row.hero),
                  fmtX(row.base / row.hero)});
    }
    emit(o, "Table XI: compilation time, baseline vs compile-time "
            "branching (model)",
         t,
         "Mechanism: the PTX branch shrinks the optimizer-visible "
         "code, outweighing template instantiation overhead "
         "(an analytic model of the compiler, not a measurement).");
    return 0;
}

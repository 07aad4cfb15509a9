/**
 * @file
 * Metrics of a run: the end-to-end set, and the traced run's layer
 * ladder (service -> batch -> sphincs -> hash), which re-runs a
 * seeded sample of the run's own requests through each layer's
 * public functions on the harness thread.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <ostream>
#include <vector>

#include "harness.hh"
#include "workload.hh"

namespace perfbench
{

/** End-to-end metric names, in result-line order. */
const std::vector<std::string> &endToEndNames();

/**
 * The p99 latencies. They are printed with the end-to-end metrics but
 * left out of the result line: on a host whose vCPUs are stolen in
 * bursts they spread too far from run to run to carry a bound.
 */
const std::vector<std::string> &tailNames();

/**
 * The end-to-end metrics of one run, plus the tailNames() values (NaN
 * unless every chunk has ten samples beyond its p99), fail_frac and
 * the sample counts.
 */
Metrics endToEnd(const RunResult &r);

/** A per-layer metric and what it should move, on which workload. */
struct LayerMetric
{
    const char *name;
    const char *unit;
    const char *moves;
    const char *on;
};
const std::vector<LayerMetric> &layerMetrics();

/**
 * The traced run's ladder: turns @p traced's requests into service
 * spans, re-runs a seeded sample of them layer by layer as child
 * spans, times the hash kernels, reads the service stats, and sets
 * every layerMetrics() value in @p out. @p untraced supplies the
 * end-to-end values some ratios need. Prints the ladder and the CPU
 * Table II to @p report.
 * @return re-run outputs (signatures, verdicts) that differ from
 *         what the service returned for the same request
 */
uint64_t traceLayers(const WorkloadSpec &w, uint64_t seed,
                     const RunResult &traced, const Metrics &untraced,
                     Tracer &tracer, Metrics &out, std::ostream &report);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH

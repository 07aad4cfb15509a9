/**
 * @file
 * perfbench: the repository's serving benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-out DIR] | --self-test
 *
 * --trace 0 drives the workload through the serving API, checks every
 * output and prints the end-to-end metrics. --trace 1 runs it untraced
 * and then traced with the same seed, re-runs a sample layer by
 * layer, writes the spans to DIR and prints the per-layer metrics.
 * The last line of stdout is the JSON result; the exit code is 0 only
 * when every output was correct.
 */

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "hash/sha256xN.hh"
#include "layers.hh"
#include "selftest.hh"
#include "workload.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace
{

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string traceOut;
    bool selfTestOnly = false;
};

const char kUsage[] =
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
    "[--trace-out DIR]\n       perfbench --self-test\n";

Options
parse(int argc, char **argv)
{
    Options o;
    bool haveSeed = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--self-test") {
            o.selfTestOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + a);
        const std::string v = argv[++i];
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::stoull(v);
            haveSeed = true;
        } else if (a == "--seconds") {
            o.seconds = std::stod(v);
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                throw std::invalid_argument("--trace takes 0 or 1");
            o.trace = v == "1";
            haveTrace = true;
        } else if (a == "--trace-out") {
            o.traceOut = v;
        } else {
            throw std::invalid_argument("unknown option " + a);
        }
    }
    if (!o.selfTestOnly &&
        (o.workload.empty() || !haveSeed || !haveTrace || !(o.seconds > 0)))
        throw std::invalid_argument("--workload, --seed, --seconds > 0 "
                                    "and --trace are required");
    if (o.trace && o.traceOut.empty())
        throw std::invalid_argument("--trace 1 needs --trace-out");
    return o;
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        s.erase(0, s.find_first_not_of(' '));
        return s;
    }
#endif
    return "unknown";
}

/** nproc, CPU, lane tier, build type and compiler, on one line. */
std::string
hostRecord()
{
    const herosign::LaneDispatch d = herosign::laneDispatch();
    const char *tier = d.backend == herosign::LaneBackend::Avx512 ? "avx512"
                       : d.backend == herosign::LaneBackend::Avx2 ? "avx2"
                                                                  : "scalar";
    return "nproc=" + std::to_string(std::thread::hardware_concurrency()) +
           " cpu=\"" + cpuModel() + "\" lanes=" + tier + "x" +
           std::to_string(d.width) + " build=" + PERFBENCH_BUILD_TYPE +
           " compiler=\"" + __VERSION__ + "\"";
}

/** Why this process must not measure, or empty when it may. */
std::string
refusal()
{
    for (const char *var : {"HEROSIGN_FAULT_PLAN", "HEROSIGN_DISABLE_AVX2",
                            "HEROSIGN_DISABLE_AVX512"})
        if (std::getenv(var))
            return std::string(var) +
                   " is set; a demoted or faulted run is not comparable";
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release")
        return std::string("build type is ") + PERFBENCH_BUILD_TYPE +
               ", not Release";
    return {};
}

void
printEndToEnd(const Metrics &m, const RunResult &r)
{
    for (const std::string &n : endToEndNames())
        std::printf("  %-14s %12.6g\n", n.c_str(), m.get(n));
    for (const std::string &n : tailNames())
        std::printf("  %-14s %12.6g (not in the result line)\n", n.c_str(),
                    m.get(n));
    std::printf("  %-14s %12.6g ratio (%llu of %zu requests failed)\n",
                "fail_frac", m.get("fail_frac"),
                static_cast<unsigned long long>(r.failed()), r.recs.size());
    std::printf("  samples: %.0f sign, %.0f verify\n",
                m.get("sign_samples"), m.get("verify_samples"));
    std::fflush(stdout);
}

/**
 * Keep every core busy for @p d with plain arithmetic. On virtual
 * machines, vCPUs that idled can run at a fraction of their speed for
 * up to a second after waking, which would land in set-up and the
 * start of the window. Nothing of the program under test runs here.
 */
void
warmUpCpus(std::chrono::milliseconds d)
{
    std::atomic<uint64_t> sink{0};
    const auto end = Clock::now() + d;
    std::vector<std::thread> pool;
    for (unsigned i = 0; i < std::thread::hardware_concurrency(); ++i)
        pool.emplace_back([&sink, end, i] {
            uint64_t x = i + 1;
            while (Clock::now() < end)
                for (int k = 0; k < 1000; ++k) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                }
            sink.fetch_xor(x, std::memory_order_relaxed);
        });
    for (std::thread &t : pool)
        t.join();
}

int
run(const Options &o)
{
    const WorkloadSpec &w = workloadByName(o.workload);
    warmUpCpus(std::chrono::milliseconds(1000));
    std::cout << "perfbench host: " << hostRecord() << "\n"
              << "perfbench workload=" << w.name << " params="
              << w.params->name << " seed=" << o.seed
              << " seconds=" << o.seconds << " trace=" << o.trace
              << std::endl;

    RunResult r = runWorkload(w, o.seed, o.seconds, false);
    checkOutputs(w, o.seed, r);
    const Metrics e2e = endToEnd(r);
    std::cout << "end-to-end (units: signatures/s, ms, verifications/s, "
                 "s):\n";
    printEndToEnd(e2e, r);
    uint64_t attempted = r.recs.size();
    uint64_t failed = r.failed();

    if (!o.trace) {
        std::cout << e2e.resultLine(failed == 0, attempted, failed,
                                    endToEndNames())
                  << std::endl;
        return failed == 0 ? 0 : 1;
    }

    RunResult traced = runWorkload(w, o.seed, o.seconds, true);
    checkOutputs(w, o.seed, traced);
    std::cout << "traced run:\n";
    printEndToEnd(endToEnd(traced), traced);
    Tracer tracer(traced.origin);
    Metrics layers;
    const uint64_t mismatches =
        traceLayers(w, o.seed, traced, e2e, tracer, layers, std::cout);
    std::cout << "re-run outputs differing from the service: " << mismatches
              << "\n";

    std::filesystem::create_directories(o.traceOut);
    const std::filesystem::path file =
        std::filesystem::path(o.traceOut) /
        (w.name + "-seed" + std::to_string(o.seed) + ".jsonl");
    std::ofstream spans(file);
    spans << "{\"workload\":\"" << w.name << "\",\"seed\":" << o.seed
          << ",\"host\":\"";
    for (char ch : hostRecord())
        spans << (ch == '"' ? '\'' : ch);
    spans << "\"}\n";
    tracer.write(spans);
    spans.close();
    if (!spans)
        throw std::runtime_error("cannot write " + file.string());
    std::cout << "spans: " << tracer.spans().size() << " written to "
              << file.string() << "\n";

    attempted += traced.recs.size();
    failed += traced.failed() + mismatches;
    std::vector<std::string> names;
    for (const LayerMetric &lm : layerMetrics())
        names.push_back(lm.name);
    std::cout << layers.resultLine(failed == 0, attempted, failed, names)
              << std::endl;
    return failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    try {
        o = parse(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n" << kUsage;
        return 2;
    }
    try {
        if (!selfTest(std::cerr))
            return 2;
        if (o.selfTestOnly) {
            std::cout << "self-test passed\n";
            return 0;
        }
        if (const std::string why = refusal(); !why.empty()) {
            std::cerr << "perfbench: refusing to run: " << why << "\n";
            return 2;
        }
        return run(o);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}

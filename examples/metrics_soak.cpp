/**
 * @file
 * Metrics soak: run a duration-bounded mixed sign+verify workload
 * through a shared-registry serving fabric while a MetricsReporter
 * thread appends one JSON snapshot line per period, then validate
 * the final Prometheus exposition with the test suite's format
 * checker (tests/telemetry/prom_check.hh) and print a sampled trace
 * timeline.
 *
 *   $ ./metrics_soak [--seconds N] [--out FILE.jsonl]
 *                    [--period-ms P] [--tenants T]
 *
 * Exit code 0 requires: the workload completed, the reporter wrote
 * at least two snapshot lines (one periodic + the final flush), and
 * exportPrometheus() passed promCheck(). This is the binary behind
 * `METRICS_SOAK=1 ./ci.sh`.
 */

#include <chrono>
#include <cstring>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/random.hh"
#include "prom_check.hh"
#include "service/sign_service.hh"
#include "service/verify_service.hh"
#include "telemetry/reporter.hh"

using namespace herosign;
using service::KeyStore;
using service::ServiceConfig;
using service::ServiceStats;
using service::SignService;
using service::StatsRegistry;
using service::VerifyService;

int
main(int argc, char **argv)
{
    double seconds = 3.0;
    std::string out = "metrics_soak.jsonl";
    unsigned period_ms = 250;
    unsigned tenants = 3;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--seconds" && i + 1 < argc)
            seconds = std::stod(argv[++i]);
        else if (a == "--out" && i + 1 < argc)
            out = argv[++i];
        else if (a == "--period-ms" && i + 1 < argc)
            period_ms = static_cast<unsigned>(std::stoul(argv[++i]));
        else if (a == "--tenants" && i + 1 < argc)
            tenants = std::max(
                1u, static_cast<unsigned>(std::stoul(argv[++i])));
    }

    const sphincs::Params &p = sphincs::Params::sphincs128f();
    sphincs::SphincsPlus scheme(p);
    Rng rng(0x50a4);
    KeyStore store;
    std::vector<std::pair<ByteVec, ByteVec>> vpool;
    for (unsigned t = 0; t < tenants; ++t) {
        const std::string id =
            std::string("tenant-").append(std::to_string(t));
        auto kp = scheme.keygenFromSeed(rng.bytes(3 * p.n));
        store.addKey(id, kp);
        ByteVec m = rng.bytes(32);
        vpool.emplace_back(m, scheme.sign(m, kp.sk));
    }

    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.shards = 2;
    cfg.verifyWorkers = 2;
    cfg.verifyShards = 2;
    cfg.telemetry.sampleEvery = 16;
    SignService sign_svc(store, cfg);
    VerifyService verify_svc(store, cfg, sign_svc.contextCache(),
                             sign_svc.statsRegistry(),
                             sign_svc.admission());

    telemetry::MetricsReporter reporter(
        out, std::chrono::milliseconds(period_ms),
        [&]() -> std::string {
            return StatsRegistry::exportJson(
                sign_svc.stats().mergedWith(verify_svc.stats()));
        });

    // Closed-loop mixed traffic until the deadline: each producer
    // keeps one request in flight, alternating planes.
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(seconds));
    std::vector<std::thread> producers;
    for (unsigned t = 0; t < 2; ++t) {
        producers.emplace_back([&, t] {
            Rng prng(0xfeed + t);
            unsigned i = 0;
            while (std::chrono::steady_clock::now() < deadline) {
                const unsigned tenant = (t + i) % tenants;
                const std::string id =
                    std::string("tenant-").append(
                        std::to_string(tenant));
                if (i++ % 2 == 0)
                    sign_svc.submit(id, {prng.bytes(32), {}, {}, {}})
                        .get();
                else
                    verify_svc
                        .submit(id, {vpool[tenant].first,
                                     vpool[tenant].second, {}})
                        .get();
            }
        });
    }
    for (auto &th : producers)
        th.join();
    sign_svc.drain();
    verify_svc.drain();
    reporter.stop();

    const ServiceStats stats =
        sign_svc.stats().mergedWith(verify_svc.stats());
    std::cout << "soak: " << stats.signsCompleted << " signs, "
              << stats.verifies << " verifies in " << seconds
              << " s; " << reporter.linesWritten()
              << " snapshot lines -> " << out << "\n";

    // Per-stage latency summary straight from the merged snapshot.
    for (const auto &[key, snap] : stats.stages) {
        if (key.find("group_size") != std::string::npos ||
            key.find("lane_fill_pct") != std::string::npos)
            continue;
        std::cout << "  " << key << ": n=" << snap.count
                  << " p50=" << snap.percentile(0.50) / 1e6
                  << "ms p99=" << snap.percentile(0.99) / 1e6
                  << "ms\n";
    }

    // A few sampled spans: complete reconstructed timelines.
    const auto &tel = sign_svc.statsRegistry()->telemetry();
    auto spans = tel.recorder().dump();
    std::cout << "sampled spans: " << spans.size() << " (1 in "
              << cfg.telemetry.sampleEvery << ")\n";
    for (size_t i = 0; i < spans.size() && i < 3; ++i) {
        const auto &s = spans[i];
        std::cout << "  span #" << s.index << " plane="
                  << telemetry::planeName(s.plane) << " tenant="
                  << s.tenant << " e2e="
                  << (s.ts[6] - s.ts[0]) / 1e6 << "ms\n";
    }

    // Validate the Prometheus exposition with the format checker.
    const std::string prom = StatsRegistry::exportPrometheus(stats);
    const auto check = telemetry::promCheck(prom);
    std::cout << "prometheus exposition: " << check.samples
              << " samples, " << check.typeDecls << " TYPE decls, "
              << (check.ok ? "format OK" : "FORMAT ERRORS") << "\n";
    for (const auto &e : check.errors)
        std::cerr << "  prom_check: " << e << "\n";

    bool ok = check.ok;
    if (telemetry::compiledIn() && stats.stages.empty()) {
        std::cerr << "soak: no stage histograms recorded\n";
        ok = false;
    }
    if (reporter.linesWritten() < 2) {
        std::cerr << "soak: expected >= 2 snapshot lines, got "
                  << reporter.linesWritten() << "\n";
        ok = false;
    }
    if (stats.signsCompleted == 0 || stats.verifies == 0) {
        std::cerr << "soak: workload did not complete\n";
        ok = false;
    }
    return ok ? 0 : 1;
}

/**
 * @file
 * StatsRegistry::exportJson / exportPrometheus: render one
 * ServiceStats snapshot (typically the mergedWith() of a fabric's
 * per-service snapshots) for machines.
 *
 * JSON is a single line (no embedded newlines), so a MetricsReporter
 * appending one snapshot per period produces valid JSONL. The
 * Prometheus rendering follows the text exposition format: TYPE/HELP
 * comments, counters suffixed _total, histograms as cumulative
 * _bucket{le=...}/_sum/_count series with latencies converted from
 * the telemetry plane's nanoseconds to seconds.
 */

#include "service/service_stats.hh"

#include <cmath>
#include <sstream>

namespace herosign::service
{

namespace
{

using telemetry::HistogramSnapshot;
using telemetry::LatencyHistogram;

constexpr double kNsPerSec = 1e9;

/** Counter/gauge name → value table driving both exporters. */
struct NamedValue
{
    const char *name;
    uint64_t value;
    bool isGauge;
};

std::vector<NamedValue>
namedValues(const ServiceStats &s)
{
    return {
        {"queue_depth", s.queueDepth, true},
        {"in_flight", s.inFlight, true},
        {"signs_submitted", s.signsSubmitted, false},
        {"signs_completed", s.signsCompleted, false},
        {"sign_failures", s.signFailures, false},
        {"signs_rejected", s.signsRejected, false},
        {"sign_lane_groups", s.signLaneGroups, false},
        {"sign_cross_sign_jobs", s.signCrossSignJobs, false},
        {"verify_queue_depth", s.verifyQueueDepth, true},
        {"verify_in_flight", s.verifyInFlight, true},
        {"verifies_submitted", s.verifiesSubmitted, false},
        {"verifies", s.verifies, false},
        {"verify_rejects", s.verifyRejects, false},
        {"verify_failures", s.verifyFailures, false},
        {"verifies_rejected", s.verifiesRejected, false},
        {"unknown_tenant_rejects", s.unknownTenantRejects, false},
        {"sign_expired", s.signExpired, false},
        {"verify_expired", s.verifyExpired, false},
        {"callback_errors", s.callbackErrors, false},
        {"worker_restarts", s.workerRestarts, false},
        {"verify_worker_restarts", s.verifyWorkerRestarts, false},
        {"guard_mismatches", s.guardMismatches, false},
        {"lane_quarantines", s.laneQuarantines, false},
    };
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s)
    {
        switch (c)
        {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\r':
            out += "\\r";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20)
            {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            }
            else
                out += c;
        }
    }
    return out;
}

/// A Prometheus label value: backslash, double quote and line feed
/// are the characters the text format requires escaped.
std::string
promLabelEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s)
    {
        switch (c)
        {
        case '\\':
            out += "\\\\";
            break;
        case '"':
            out += "\\\"";
            break;
        case '\n':
            out += "\\n";
            break;
        default:
            out += c;
        }
    }
    return out;
}

void
jsonHistogram(std::ostringstream &os, const HistogramSnapshot &h)
{
    os << "{\"count\":" << h.count << ",\"min_ns\":" << h.min
       << ",\"max_ns\":" << h.max << ",\"mean_ns\":" << h.mean()
       << ",\"p50_ns\":" << h.percentile(0.50)
       << ",\"p90_ns\":" << h.percentile(0.90)
       << ",\"p99_ns\":" << h.percentile(0.99)
       << ",\"p999_ns\":" << h.percentile(0.999) << "}";
}

/**
 * Emit one Prometheus histogram metric family: cumulative
 * non-empty buckets, the +Inf bucket, _sum and _count. @p scale
 * divides raw values (1e9 turns nanoseconds into seconds).
 */
void
promHistogram(std::ostringstream &os, const std::string &family,
              const std::string &labels,
              const HistogramSnapshot &h, double scale)
{
    const std::string sep = labels.empty() ? "" : ",";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < h.counts.size(); ++i)
    {
        if (h.counts[i] == 0)
            continue;
        cumulative += h.counts[i];
        const double le =
            static_cast<double>(LatencyHistogram::bucketUpperBound(
                static_cast<unsigned>(i))) /
            scale;
        os << family << "_bucket{" << labels << sep << "le=\"" << le
           << "\"} " << cumulative << "\n";
    }
    os << family << "_bucket{" << labels << sep << "le=\"+Inf\"} "
       << h.count << "\n";
    os << family << "_sum";
    if (!labels.empty())
        os << "{" << labels << "}";
    os << " " << static_cast<double>(h.sum) / scale << "\n";
    os << family << "_count";
    if (!labels.empty())
        os << "{" << labels << "}";
    os << " " << h.count << "\n";
}

/** Split a "<plane>_<metric>" stage key from snapshotStages(). */
bool
splitStageKey(const std::string &key, std::string &plane,
              std::string &metric)
{
    for (const char *p : {"sign_", "verify_"})
    {
        const std::string prefix(p);
        if (key.rfind(prefix, 0) == 0)
        {
            plane = prefix.substr(0, prefix.size() - 1);
            metric = key.substr(prefix.size());
            return true;
        }
    }
    return false;
}

bool
isLatencyMetric(const std::string &metric)
{
    return metric != "group_size" && metric != "lane_fill_pct";
}

} // namespace

std::string
StatsRegistry::exportJson(const ServiceStats &s)
{
    std::ostringstream os;
    os << "{";
    os << "\"counters\":{";
    bool first = true;
    for (const NamedValue &nv : namedValues(s))
    {
        if (nv.isGauge)
            continue;
        os << (first ? "" : ",") << "\"" << nv.name
           << "\":" << nv.value;
        first = false;
    }
    os << "},\"gauges\":{";
    first = true;
    for (const NamedValue &nv : namedValues(s))
    {
        if (!nv.isGauge)
            continue;
        os << (first ? "" : ",") << "\"" << nv.name
           << "\":" << nv.value;
        first = false;
    }
    os << "},\"rates\":{\"wall_us\":" << s.wallUs
       << ",\"sigs_per_sec\":" << s.sigsPerSec
       << ",\"verifies_per_sec\":" << s.verifiesPerSec << "}";
    os << ",\"cache\":{\"hits\":" << s.cache.hits
       << ",\"misses\":" << s.cache.misses
       << ",\"evictions\":" << s.cache.evictions
       << ",\"size\":" << s.cache.size
       << ",\"capacity\":" << s.cache.capacity << "}";
    os << ",\"stages\":{";
    first = true;
    for (const auto &[key, h] : s.stages)
    {
        os << (first ? "" : ",") << "\"" << jsonEscape(key)
           << "\":";
        jsonHistogram(os, h);
        first = false;
    }
    os << "},\"tenants\":{";
    first = true;
    for (const auto &[id, t] : s.tenants)
    {
        os << (first ? "" : ",") << "\"" << jsonEscape(id) << "\":{"
           << "\"signs_submitted\":" << t.signsSubmitted
           << ",\"signs_completed\":" << t.signsCompleted
           << ",\"sign_failures\":" << t.signFailures
           << ",\"verifies_submitted\":" << t.verifiesSubmitted
           << ",\"verifies\":" << t.verifies
           << ",\"verify_rejects\":" << t.verifyRejects
           << ",\"verify_failures\":" << t.verifyFailures
           << ",\"pending\":" << t.pending
           << ",\"sigs_per_sec\":" << t.sigsPerSec;
        if (!t.signLatency.empty())
        {
            os << ",\"sign_latency\":";
            jsonHistogram(os, t.signLatency);
        }
        if (!t.verifyLatency.empty())
        {
            os << ",\"verify_latency\":";
            jsonHistogram(os, t.verifyLatency);
        }
        os << "}";
        first = false;
    }
    os << "}}";
    return os.str();
}

std::string
StatsRegistry::exportPrometheus(const ServiceStats &s)
{
    std::ostringstream os;
    for (const NamedValue &nv : namedValues(s))
    {
        const std::string name =
            std::string("herosign_") + nv.name +
            (nv.isGauge ? "" : "_total");
        os << "# HELP " << name << " herosign serving-layer "
           << (nv.isGauge ? "gauge" : "counter") << "\n";
        os << "# TYPE " << name << " "
           << (nv.isGauge ? "gauge" : "counter") << "\n";
        os << name << " " << nv.value << "\n";
    }

    os << "# HELP herosign_cache_size warm contexts held\n"
       << "# TYPE herosign_cache_size gauge\n"
       << "herosign_cache_size " << s.cache.size << "\n"
       << "# HELP herosign_cache_hits_total context cache hits\n"
       << "# TYPE herosign_cache_hits_total counter\n"
       << "herosign_cache_hits_total " << s.cache.hits << "\n"
       << "# HELP herosign_cache_misses_total context cache misses\n"
       << "# TYPE herosign_cache_misses_total counter\n"
       << "herosign_cache_misses_total " << s.cache.misses << "\n";

    // Stage latency histograms: one family, labelled by plane+stage.
    bool anyLatency = false;
    bool anyShape = false;
    for (const auto &[key, h] : s.stages)
    {
        (void)h;
        std::string plane, metric;
        if (!splitStageKey(key, plane, metric))
            continue;
        (isLatencyMetric(metric) ? anyLatency : anyShape) = true;
    }
    if (anyLatency)
        os << "# HELP herosign_stage_latency_seconds per-request "
              "stage latency decomposition\n"
           << "# TYPE herosign_stage_latency_seconds histogram\n";
    for (const auto &[key, h] : s.stages)
    {
        std::string plane, metric;
        if (!splitStageKey(key, plane, metric) ||
            !isLatencyMetric(metric))
            continue;
        promHistogram(os, "herosign_stage_latency_seconds",
                      "plane=\"" + plane + "\",stage=\"" + metric +
                          "\"",
                      h, kNsPerSec);
    }
    if (anyShape)
        os << "# HELP herosign_group_shape coalesced group size and "
              "lane fill percentage\n"
           << "# TYPE herosign_group_shape histogram\n";
    for (const auto &[key, h] : s.stages)
    {
        std::string plane, metric;
        if (!splitStageKey(key, plane, metric) ||
            isLatencyMetric(metric))
            continue;
        promHistogram(os, "herosign_group_shape",
                      "plane=\"" + plane + "\",metric=\"" + metric +
                          "\"",
                      h, 1.0);
    }

    // Per-tenant counters and end-to-end latency.
    if (!s.tenants.empty())
        os << "# HELP herosign_tenant_signs_completed_total "
              "per-tenant completed signatures\n"
           << "# TYPE herosign_tenant_signs_completed_total "
              "counter\n"
           << "# HELP herosign_tenant_verifies_total per-tenant "
              "verification attempts\n"
           << "# TYPE herosign_tenant_verifies_total counter\n"
           << "# HELP herosign_tenant_pending per-tenant pending "
              "jobs\n"
           << "# TYPE herosign_tenant_pending gauge\n";
    bool anyTenantLatency = false;
    for (const auto &[id, t] : s.tenants)
        if (!t.signLatency.empty() || !t.verifyLatency.empty())
            anyTenantLatency = true;
    if (anyTenantLatency)
        os << "# HELP herosign_tenant_latency_seconds per-tenant "
              "end-to-end request latency\n"
           << "# TYPE herosign_tenant_latency_seconds histogram\n";
    for (const auto &[id, t] : s.tenants)
    {
        const std::string tenant =
            "tenant=\"" + promLabelEscape(id) + "\"";
        os << "herosign_tenant_signs_completed_total{" << tenant
           << "} " << t.signsCompleted << "\n";
        os << "herosign_tenant_verifies_total{" << tenant << "} "
           << t.verifies << "\n";
        os << "herosign_tenant_pending{" << tenant << "} "
           << t.pending << "\n";
        if (!t.signLatency.empty())
            promHistogram(os, "herosign_tenant_latency_seconds",
                          tenant + ",plane=\"sign\"", t.signLatency,
                          kNsPerSec);
        if (!t.verifyLatency.empty())
            promHistogram(os, "herosign_tenant_latency_seconds",
                          tenant + ",plane=\"verify\"",
                          t.verifyLatency, kNsPerSec);
    }
    return os.str();
}

} // namespace herosign::service

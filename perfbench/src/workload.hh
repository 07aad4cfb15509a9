/**
 * @file
 * The three seeded serving workloads and the run that drives one of
 * them through the public serving API: set-up (keygen, KeyStore,
 * services, first request per tenant), the timed window, a stats
 * read, and the output checks.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <deque>
#include <string>
#include <vector>

#include "harness.hh"
#include "service/service_stats.hh"
#include "sphincs/sphincs.hh"

namespace perfbench
{

enum class Traffic
{
    Burst,  ///< one producer, submitMany bursts, wait for all, repeat
    Closed, ///< a sign and a verify client, one request in flight each
    Open,   ///< Poisson arrivals at a frozen rate, sender + collector
};

struct WorkloadSpec
{
    std::string name;
    const herosign::sphincs::Params *params;
    unsigned tenants;
    Traffic traffic;
    unsigned burst = 0; ///< Burst: requests per burst
    double rate = 0;    ///< Open: arrivals per second, frozen
    double signShare = 0; ///< Open: share of arrivals that sign
};

const std::vector<WorkloadSpec> &workloads();
/** @throws std::invalid_argument for an unknown name */
const WorkloadSpec &workloadByName(const std::string &name);

/// One verify request in this many carries a one-byte corruption.
constexpr unsigned kCorruptEvery = 8;
/// Burst workloads give this share of the window to signing and the
/// rest to verifying what they signed.
constexpr double kSignShareOfWindow = 0.6;
/// Set-up repetitions per run; setup_s is their median.
constexpr unsigned kSetupReps = 9;

/** Independent input streams of one seed. */
enum Tag : uint64_t
{
    kTagKeys = 1,
    kTagWarm,
    kTagSignInputs,
    kTagArrivals,
    kTagCorrupt,
    kTagPool,
    kTagSample,
    kTagLadder,
    kTagKernelInputs,
};

struct Tenant
{
    std::string id;
    herosign::sphincs::KeyPair kp;
};

enum class Kind : uint8_t { Sign, Verify };

/** One request of the measured window, with its stamps and outcome. */
struct Rec
{
    uint64_t id = 0; ///< request id shared by its spans
    Kind kind = Kind::Sign;
    unsigned tenant = 0;
    ByteVec msg;     ///< sign input
    ByteVec optRand; ///< sign input, n bytes
    ByteVec sig;     ///< sign output
    /// Verify: the signed message it checks, and an optional one-byte
    /// corruption of that signature (corruptPos < 0: none).
    const Rec *target = nullptr;
    long corruptPos = -1;
    uint8_t corruptXor = 0;
    bool verdict = false;

    /// Stamps in ns from the window start. Latency
    /// runs from sendNs: the scheduled send time in the open loop,
    /// else the start of the submit call.
    double sendNs = 0;
    double sentNs = 0;   ///< when the submit call started
    double submitNs = 0; ///< time inside submit/submitMany (traced run)
    double doneNs = 0;   ///< when the future was seen ready
    /// Open loop: how late the sender was against its schedule.
    /// Closed and burst loops: the gap from the previous completion.
    double lagNs = 0;

    bool failed = false; ///< threw, refused or dropped
    bool wrong = false;  ///< output check failed

    bool expected() const { return corruptPos < 0; }
    bool bad() const { return failed || wrong; }
    /** The signature bytes a verify request carries. */
    ByteVec payload() const;
};

/** Everything one workload run leaves behind. */
struct RunResult
{
    std::vector<Tenant> tenants;
    /// Pre-signed messages open- and closed-loop verifies refer to.
    std::vector<Rec> presigned;
    /// Measured requests in send order (a deque keeps Rec addresses
    /// stable for verify targets).
    std::deque<Rec> recs;
    std::vector<double> setupS; ///< one per set-up repetition
    Clock::time_point origin;   ///< window start; Rec stamps count from it
    double signWallS = 0;
    double verifyWallS = 0;
    herosign::service::ServiceStats signStats, verifyStats;

    uint64_t failed() const;
};

/** Arrival schedule of an open-loop workload, in send order. */
struct Arrival
{
    double atNs = 0;
    bool sign = false;
    unsigned tenant = 0;
};
std::vector<Arrival> arrivals(const WorkloadSpec &w, uint64_t seed,
                              double seconds);

/** The seeded key material of tenant @p t. */
Tenant makeTenant(const WorkloadSpec &w, uint64_t seed, unsigned t);

/**
 * Set up (kSetupReps times), run the timed window for @p seconds and
 * read the services' stats. When @p stamp_submit is set, the window
 * also stamps the end of every submit call (the traced run).
 */
RunResult runWorkload(const WorkloadSpec &w, uint64_t seed, double seconds,
                      bool stamp_submit);

/**
 * Output checks after the window: every signature verifies under
 * forced-scalar lanes, a seeded sample re-signs byte-identically on
 * scalar lanes, and every verdict matches its expected value. Marks
 * offending requests wrong.
 */
void checkOutputs(const WorkloadSpec &w, uint64_t seed, RunResult &r);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH

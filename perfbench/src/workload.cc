#include "workload.hh"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "hash/sha256xN.hh"
#include "service/sign_service.hh"
#include "service/verify_service.hh"

namespace perfbench
{

using namespace herosign;
using sphincs::Params;

namespace
{

constexpr uint64_t kMinMsg = 32;
constexpr uint64_t kMaxMsg = 1024;
/// Pre-signed messages, split evenly over the tenants, that the open
/// and closed loops verify.
constexpr size_t kPoolSize = 64;
/// Signatures re-signed on scalar lanes and byte-compared.
constexpr size_t kResignSample = 8;
/// Longest an out-of-order completion waits to be stamped.
constexpr auto kPollTick = std::chrono::milliseconds(1);

/**
 * The arrival rate of mixed-192f, frozen; never derived at run time.
 * Sign throughput on a 4-core AVX-512 host saturates near 174
 * signatures/s for this mix, about 870 requests/s at one sign per five
 * requests, so this is about 29% of capacity. At 60% (520/s) the sign
 * p99 varied by 0.23-0.31 of its median across ten seeds. At 380/s it
 * varied by 0.15-0.28 and the verify p99 by up to 0.33; interleaved
 * with 380/s on the same host, this rate cut both by about a third.
 */
constexpr double kMixedRate = 250.0;

/** The serving fabric: one KeyStore, cache, registry and budget. */
struct Fabric
{
    explicit Fabric(const std::vector<Tenant> &tenants)
    {
        for (const Tenant &t : tenants)
            store.addKey(t.id, t.kp);
        const service::ServiceConfig cfg{};
        auto cache = std::make_shared<service::ContextCache>(
            cfg.contextCacheCapacity, cfg.variant);
        auto stats = std::make_shared<service::StatsRegistry>(cfg.telemetry);
        auto admission = std::make_shared<service::AdmissionController>(
            service::AdmissionLimits::fromConfig(cfg));
        sign = std::make_unique<service::SignService>(store, cfg, cache,
                                                      stats, admission);
        verify = std::make_unique<service::VerifyService>(
            store, cfg, cache, stats, admission);
    }

    service::KeyStore store;
    std::unique_ptr<service::SignService> sign;
    std::unique_ptr<service::VerifyService> verify;
};

/** A submitted request and its future. */
struct Pending
{
    Rec *rec = nullptr;
    std::future<ByteVec> sig;
    std::future<bool> ok;

    bool ready() const
    {
        const auto zero = std::chrono::seconds(0);
        return (sig.valid() ? sig.wait_for(zero) : ok.wait_for(zero)) ==
               std::future_status::ready;
    }
};

/**
 * Outstanding futures. Sign completions are stamped exactly by their
 * request callback. Verifications have no callback, so the oldest one
 * is waited on and every ready one is stamped when seen: exactly when
 * they finish in order, at most kPollTick late out of order.
 */
class Settler
{
  public:
    explicit Settler(Clock::time_point origin) : origin_(origin) {}

    void add(Pending p)
    {
        (p.sig.valid() ? signs_ : verifies_).push_back(std::move(p));
    }

    /** True while a verification is outstanding. */
    bool watching() const { return !verifies_.empty(); }

    /** Collect what is ready, else wait a tick on the oldest verify. */
    void poll()
    {
        const bool signed_ = collect(signs_);
        if (!collect(verifies_) && !signed_ && watching())
            verifies_.front().ok.wait_for(kPollTick);
    }

    /** Block until every outstanding request is collected. */
    void drain()
    {
        while (watching())
            poll();
        for (Pending &p : signs_)
            finish(p);
        signs_.clear();
    }

  private:
    void finish(Pending &p)
    {
        try {
            if (p.sig.valid()) {
                p.rec->sig = p.sig.get();
            } else {
                p.rec->doneNs = nsBetween(origin_, Clock::now());
                p.rec->verdict = p.ok.get();
            }
        } catch (...) {
            p.rec->failed = true;
            p.rec->doneNs = nsBetween(origin_, Clock::now());
        }
    }

    bool collect(std::vector<Pending> &v)
    {
        const size_t before = v.size();
        std::erase_if(v, [&](Pending &p) {
            if (!p.ready())
                return false;
            finish(p);
            return true;
        });
        return v.size() != before;
    }

    Clock::time_point origin_;
    std::vector<Pending> signs_;
    std::vector<Pending> verifies_;
};

void
fillSignInputs(Rec &r, Stream &s, unsigned n)
{
    r.kind = Kind::Sign;
    r.msg = s.bytes(s.between(kMinMsg, kMaxMsg));
    r.optRand = s.bytes(n);
}

void
aimVerify(Rec &r, const Rec &target, Stream &s, size_t sig_bytes)
{
    r.kind = Kind::Verify;
    r.tenant = target.tenant;
    r.target = &target;
    if (s.below(kCorruptEvery) == 0) {
        r.corruptPos = static_cast<long>(s.below(sig_bytes));
        r.corruptXor = static_cast<uint8_t>(1 + s.below(255));
    }
}

/**
 * The request for @p r. Its callback runs on the worker just before
 * the future becomes ready and stamps r.doneNs; the future's
 * synchronization publishes the stamp to whoever gets the result.
 */
batch::SignRequest
signRequest(Rec &r, Clock::time_point origin)
{
    Rec *rec = &r;
    return batch::SignRequest{
        r.msg, r.optRand,
        [rec, origin](uint64_t, const ByteVec &) {
            rec->doneNs = nsBetween(origin, Clock::now());
        },
        {}};
}

batch::VerifyRequest
verifyRequest(const Rec &r)
{
    return batch::VerifyRequest{r.target->msg, r.payload(), {}};
}

double
nsSince(Clock::time_point origin)
{
    return nsBetween(origin, Clock::now());
}

/**
 * kSetupReps set-ups, each timed from the first keygen until every
 * tenant's first request is answered. Returns the last fabric.
 */
std::unique_ptr<Fabric>
setUp(const WorkloadSpec &w, uint64_t seed, RunResult &r)
{
    std::unique_ptr<Fabric> fab;
    for (unsigned rep = 0; rep < kSetupReps; ++rep) {
        fab.reset(); // the previous repetition's teardown is not timed
        Stream in(seed, kTagWarm);
        std::vector<Rec> first(w.tenants);
        for (Rec &rec : first)
            fillSignInputs(rec, in, w.params->n);

        const auto t0 = Clock::now();
        r.tenants.clear();
        for (unsigned t = 0; t < w.tenants; ++t)
            r.tenants.push_back(makeTenant(w, seed, t));
        fab = std::make_unique<Fabric>(r.tenants);
        std::vector<std::future<ByteVec>> futs;
        for (unsigned t = 0; t < w.tenants; ++t)
            futs.push_back(fab->sign->submit(
                r.tenants[t].id,
                batch::SignRequest{first[t].msg, first[t].optRand, {}, {}}));
        for (auto &f : futs)
            f.get(); // a failing set-up aborts the run
        r.setupS.push_back(nsSince(t0) * 1e-9);
    }
    return fab;
}

/** Closed or burst signing for @p seconds; returns the wall time. */
double
signPhase(const WorkloadSpec &w, uint64_t seed, double seconds,
          Clock::time_point origin, Fabric &fab, const std::string &tenant,
          std::deque<Rec> &out, bool stamp_submit)
{
    const unsigned group = w.traffic == Traffic::Burst ? w.burst : 1;
    Stream in(seed, kTagSignInputs);
    const double start = nsSince(origin);
    const auto end = Clock::now() + std::chrono::duration<double>(seconds);
    double prevDone = start;
    while (Clock::now() < end) {
        std::vector<Rec *> burst;
        std::vector<batch::SignRequest> reqs;
        for (unsigned i = 0; i < group; ++i) {
            Rec &rec = out.emplace_back();
            fillSignInputs(rec, in, w.params->n);
            burst.push_back(&rec);
            reqs.push_back(signRequest(rec, origin));
        }
        const double sent = nsSince(origin);
        std::vector<std::future<ByteVec>> futs;
        try {
            if (group == 1)
                futs.push_back(fab.sign->submit(tenant, std::move(reqs[0])));
            else
                futs = fab.sign->submitMany(tenant, reqs);
        } catch (...) {
            // A refused burst loses its earlier futures; settle them by
            // draining and count the whole burst failed.
            fab.sign->drain();
            for (Rec *rec : burst)
                rec->failed = true;
            continue;
        }
        const double submit = stamp_submit ? nsSince(origin) - sent : 0;
        Settler settler(origin);
        for (unsigned i = 0; i < group; ++i) {
            Rec &rec = *burst[i];
            rec.sendNs = rec.sentNs = sent;
            rec.submitNs = submit / group;
            rec.lagNs = sent - prevDone;
            settler.add({&rec, std::move(futs[i]), {}});
        }
        settler.drain();
        for (Rec *rec : burst)
            prevDone = std::max(prevDone, rec->doneNs);
    }
    return (prevDone - start) * 1e-9;
}

/**
 * Closed or burst verification of @p targets in turn (one in
 * kCorruptEvery corrupted); returns the wall time.
 */
double
verifyPhase(const WorkloadSpec &w, uint64_t seed, double seconds,
            Clock::time_point origin, Fabric &fab,
            const std::vector<Tenant> &tenants,
            const std::vector<const Rec *> &targets, std::deque<Rec> &out,
            bool stamp_submit)
{
    if (targets.empty())
        throw std::runtime_error("verify phase: nothing to verify");

    const unsigned group = w.traffic == Traffic::Burst ? w.burst : 1;
    Stream corrupt(seed, kTagCorrupt);
    size_t next = 0;
    const double start = nsSince(origin);
    const auto end = Clock::now() + std::chrono::duration<double>(seconds);
    double prevDone = start;
    while (Clock::now() < end) {
        Settler settler(origin);
        std::vector<Rec *> burst;
        for (unsigned i = 0; i < group; ++i) {
            Rec &rec = out.emplace_back();
            aimVerify(rec, *targets[next++ % targets.size()], corrupt,
                      w.params->sigBytes());
            burst.push_back(&rec);
        }
        for (Rec *rec : burst) {
            batch::VerifyRequest req = verifyRequest(*rec);
            rec->sendNs = rec->sentNs = nsSince(origin);
            rec->lagNs = rec->sentNs - prevDone;
            try {
                settler.add({rec, {},
                             fab.verify->submit(tenants[rec->tenant].id,
                                                std::move(req))});
            } catch (...) {
                rec->failed = true;
                rec->doneNs = nsSince(origin);
            }
            if (stamp_submit)
                rec->submitNs = nsSince(origin) - rec->sentNs;
        }
        settler.drain();
        for (Rec *rec : burst)
            prevDone = std::max(prevDone, rec->doneNs);
    }
    return (prevDone - start) * 1e-9;
}

size_t
poolPerTenant(const WorkloadSpec &w)
{
    return kPoolSize / w.tenants;
}

/** Pre-sign poolPerTenant() messages per tenant (harness input). */
void
presign(const WorkloadSpec &w, uint64_t seed, RunResult &r)
{
    Stream in(seed, kTagPool);
    const size_t per = poolPerTenant(w);
    r.presigned.resize(w.tenants * per);
    for (size_t i = 0; i < r.presigned.size(); ++i) {
        r.presigned[i].tenant = static_cast<unsigned>(i / per);
        fillSignInputs(r.presigned[i], in, w.params->n);
    }
    const sphincs::SphincsPlus scheme(*w.params);
    parallelFor(r.presigned.size(), std::thread::hardware_concurrency(),
                [&](size_t i) {
                    Rec &rec = r.presigned[i];
                    rec.sig = scheme.sign(rec.msg,
                                          r.tenants[rec.tenant].kp.sk,
                                          rec.optRand);
                });
}

/**
 * Open loop: the calling thread sends on the seeded Poisson schedule,
 * a collector thread settles the futures. Returns the wall time from
 * the window start to the last answer.
 */
double
openPhase(const WorkloadSpec &w, uint64_t seed, double seconds,
          Fabric &fab, RunResult &r, bool stamp_submit)
{
    Stream in(seed, kTagSignInputs);
    Stream corrupt(seed, kTagCorrupt);
    const size_t per = poolPerTenant(w);
    for (const Arrival &a : arrivals(w, seed, seconds)) {
        Rec &rec = r.recs.emplace_back();
        rec.sendNs = a.atNs;
        rec.tenant = a.tenant;
        if (a.sign) {
            fillSignInputs(rec, in, w.params->n);
        } else {
            const size_t pick = a.tenant * per + corrupt.below(per);
            aimVerify(rec, r.presigned[pick], corrupt, w.params->sigBytes());
        }
    }

    struct Handoff
    {
        std::mutex m;
        std::condition_variable cv;
        std::vector<Pending> queue; ///< guarded by m
        bool done = false;          ///< guarded by m
    } hand;

    const auto origin = r.origin = Clock::now();
    std::thread collector([&] {
        Settler settler(origin);
        for (;;) {
            std::vector<Pending> got;
            {
                // Signs need no watching (their callbacks stamp them),
                // so with no verification outstanding, sleep until
                // the sender hands over more.
                std::unique_lock<std::mutex> lk(hand.m);
                if (!settler.watching())
                    hand.cv.wait(lk, [&] {
                        return !hand.queue.empty() || hand.done;
                    });
                got.swap(hand.queue);
                if (got.empty() && hand.done)
                    break;
            }
            for (Pending &p : got)
                settler.add(std::move(p));
            settler.poll();
        }
        settler.drain();
    });

    std::exception_ptr err;
    try {
        for (Rec &rec : r.recs) {
            Pending p{&rec, {}, {}};
            const auto due =
                origin + std::chrono::nanoseconds(
                             static_cast<int64_t>(rec.sendNs));
            const std::string &tenant = r.tenants[rec.tenant].id;
            if (rec.kind == Kind::Sign) {
                batch::SignRequest req = signRequest(rec, origin);
                std::this_thread::sleep_until(due);
                rec.sentNs = nsSince(origin);
                try {
                    p.sig = fab.sign->submit(tenant, std::move(req));
                } catch (...) {
                    rec.failed = true;
                }
            } else {
                batch::VerifyRequest req = verifyRequest(rec);
                std::this_thread::sleep_until(due);
                rec.sentNs = nsSince(origin);
                try {
                    p.ok = fab.verify->submit(tenant, std::move(req));
                } catch (...) {
                    rec.failed = true;
                }
            }
            rec.lagNs = rec.sentNs - rec.sendNs;
            if (stamp_submit)
                rec.submitNs = nsSince(origin) - rec.sentNs;
            if (rec.failed) {
                rec.doneNs = nsSince(origin);
                continue;
            }
            std::lock_guard<std::mutex> lk(hand.m);
            hand.queue.push_back(std::move(p));
            hand.cv.notify_one();
        }
    } catch (...) {
        err = std::current_exception();
    }
    {
        std::lock_guard<std::mutex> lk(hand.m);
        hand.done = true;
    }
    hand.cv.notify_one();
    collector.join();
    if (err)
        std::rethrow_exception(err);

    double last = 0;
    for (const Rec &rec : r.recs)
        last = std::max(last, rec.doneNs);
    return last * 1e-9;
}

} // namespace

const std::vector<WorkloadSpec> &
workloads()
{
    static const std::vector<WorkloadSpec> all = {
        {"batch-256f", &Params::sphincs256f(), 1, Traffic::Burst, 256, 0, 0},
        {"single-128f", &Params::sphincs128f(), 1, Traffic::Closed, 0, 0, 0},
        {"mixed-192f", &Params::sphincs192f(), 8, Traffic::Open, 0,
         kMixedRate, 0.2},
    };
    return all;
}

const WorkloadSpec &
workloadByName(const std::string &name)
{
    for (const WorkloadSpec &w : workloads())
        if (w.name == name)
            return w;
    throw std::invalid_argument("unknown workload: " + name);
}

ByteVec
Rec::payload() const
{
    ByteVec sig = target->sig;
    if (corruptPos >= 0)
        sig[static_cast<size_t>(corruptPos)] ^= corruptXor;
    return sig;
}

uint64_t
RunResult::failed() const
{
    return static_cast<uint64_t>(
        std::count_if(recs.begin(), recs.end(),
                      [](const Rec &rec) { return rec.bad(); }));
}

std::vector<Arrival>
arrivals(const WorkloadSpec &w, uint64_t seed, double seconds)
{
    // A Poisson process conditioned on its count: exactly rate x
    // seconds arrivals at uniform times, exactly signShare of them
    // signing, so the offered load is the same for every seed.
    Stream s(seed, kTagArrivals);
    const size_t n = static_cast<size_t>(std::llround(w.rate * seconds));
    const size_t signs =
        static_cast<size_t>(std::llround(w.signShare * static_cast<double>(n)));
    std::vector<Arrival> out(n);
    for (Arrival &a : out) {
        a.atNs = s.unit() * seconds * 1e9;
        a.tenant = static_cast<unsigned>(s.below(w.tenants));
    }
    std::sort(out.begin(), out.end(),
              [](const Arrival &a, const Arrival &b) { return a.atNs < b.atNs; });
    for (size_t i : s.distinct(n, signs))
        out[i].sign = true;
    return out;
}

Tenant
makeTenant(const WorkloadSpec &w, uint64_t seed, unsigned t)
{
    Stream s(seed, (uint64_t{t} << 8) | kTagKeys);
    const sphincs::SphincsPlus scheme(*w.params);
    return {"tenant-" + std::to_string(t),
            scheme.keygenFromSeed(s.bytes(3 * w.params->n))};
}

RunResult
runWorkload(const WorkloadSpec &w, uint64_t seed, double seconds,
            bool stamp_submit)
{
    RunResult r;
    std::unique_ptr<Fabric> fab = setUp(w, seed, r);
    const std::string &tenant = r.tenants[0].id;
    std::deque<Rec> verifies;
    std::vector<const Rec *> targets;
    switch (w.traffic) {
    case Traffic::Open:
        presign(w, seed, r);
        r.signWallS = r.verifyWallS =
            openPhase(w, seed, seconds, *fab, r, stamp_submit);
        break;
    case Traffic::Closed: {
        // A verify client runs beside the sign client, each with one
        // request in flight, so both get the whole window.
        presign(w, seed, r);
        for (const Rec &rec : r.presigned)
            targets.push_back(&rec);
        std::exception_ptr err;
        const auto origin = r.origin = Clock::now();
        std::thread verifier([&] {
            try {
                r.verifyWallS =
                    verifyPhase(w, seed, seconds, origin, *fab, r.tenants,
                                targets, verifies, stamp_submit);
            } catch (...) {
                err = std::current_exception();
            }
        });
        try {
            r.signWallS = signPhase(w, seed, seconds, origin, *fab, tenant,
                                    r.recs, stamp_submit);
        } catch (...) {
            verifier.join();
            throw;
        }
        verifier.join();
        if (err)
            std::rethrow_exception(err);
        break;
    }
    case Traffic::Burst: {
        const auto origin = r.origin = Clock::now();
        r.signWallS = signPhase(w, seed, seconds * kSignShareOfWindow,
                                origin, *fab, tenant, r.recs, stamp_submit);
        for (const Rec &rec : r.recs)
            if (!rec.failed)
                targets.push_back(&rec);
        r.verifyWallS = verifyPhase(
            w, seed, seconds * (1 - kSignShareOfWindow), origin, *fab,
            r.tenants, targets, verifies, stamp_submit);
        break;
    }
    }
    // Appending keeps every Rec's address, so verify targets and the
    // sign callbacks' pointers stay valid.
    for (Rec &rec : verifies)
        r.recs.push_back(std::move(rec));
    for (size_t i = 0; i < r.recs.size(); ++i)
        r.recs[i].id = i + 1;
    r.signStats = fab->sign->stats();
    r.verifyStats = fab->verify->stats();
    return r;
}

void
checkOutputs(const WorkloadSpec &w, uint64_t seed, RunResult &r)
{
    const sphincs::SphincsPlus scheme(*w.params);
    std::vector<Rec *> signs;
    for (Rec &rec : r.recs) {
        if (rec.failed)
            continue;
        if (rec.kind == Kind::Sign)
            signs.push_back(&rec);
        else if (rec.verdict != rec.expected())
            rec.wrong = true;
    }
    const unsigned threads = std::thread::hardware_concurrency();
    parallelFor(signs.size(), threads, [&](size_t i) {
        ScopedScalarLanes scalar;
        Rec &rec = *signs[i];
        if (!scheme.verify(rec.msg, rec.sig, r.tenants[rec.tenant].kp.pk))
            rec.wrong = true;
    });

    Stream pick(seed, kTagSample);
    const std::vector<size_t> sample =
        pick.distinct(signs.size(), kResignSample);
    parallelFor(sample.size(), threads, [&](size_t i) {
        ScopedScalarLanes scalar;
        Rec &rec = *signs[sample[i]];
        if (scheme.sign(rec.msg, r.tenants[rec.tenant].kp.sk,
                        rec.optRand) != rec.sig)
            rec.wrong = true;
    });
}

} // namespace perfbench

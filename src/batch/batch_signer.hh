/**
 * @file
 * BatchSigner: a real multi-threaded SPHINCS+ batch signing service.
 *
 * Where SignEngine::signBatchTiming simulates a GPU batch timeline,
 * BatchSigner executes one: N worker threads (modeling per-stream
 * workers) pull jobs from a sharded MPMC queue (one shard per engine
 * stream) and sign against shared *immutable* key state — one
 * SecretKey (held via shared_ptr, zeroized on teardown when owned
 * here) and one warm hashing Context built once at construction, so
 * the hot path performs no per-sign Context construction and no
 * worker ever holds a private copy of secret material.
 *
 * Workers coalesce queued jobs into cross-signature lane groups: one
 * blocking pop plus non-blocking pops up to the configured laneGroup,
 * signed in lockstep by the batch::LaneScheduler so SIMD hash lanes
 * fill across signatures even on parameter shapes whose per-signature
 * trees are narrower than the lane width. A lone job signs through
 * the same scheduler as a group of one, where its own k FORS trees
 * fill the lanes. Signatures are byte-identical to the scalar
 * sphincs::SphincsPlus path regardless of worker count, group size or
 * scheduling order.
 */

#ifndef HEROSIGN_BATCH_BATCH_SIGNER_HH
#define HEROSIGN_BATCH_BATCH_SIGNER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "batch/batch_stats.hh"
#include "batch/mpmc_queue.hh"
#include "batch/sign_request.hh"
#include "hash/sha256.hh"
#include "sphincs/sphincs.hh"
#include "telemetry/telemetry.hh"

namespace herosign::tune
{
struct Profile;
struct BatchKnobOverrides;
} // namespace herosign::tune

namespace herosign::batch
{

/** Construction-time knobs for a BatchSigner. */
struct BatchSignerConfig
{
    unsigned workers = 4;  ///< worker threads (clamped to >= 1)
    unsigned shards = 4;   ///< queue shards; engine wires streams here
    /// Jobs one worker coalesces into a single cross-signature lane
    /// group (signed in lockstep, hash lanes filled across
    /// signatures). 0 = auto (the dispatched hash-lane width);
    /// 1 disables coalescing — every job signs as a group of one,
    /// pooling only its own hash work. Clamped to the LaneScheduler
    /// group bound.
    unsigned laneGroup = 0;
    Sha256Variant variant = Sha256Variant::Native;
    /// Verify every produced signature against the warm context
    /// before it is released. On a mismatch the job is re-signed once
    /// on the forced-scalar path and the suspect SIMD tier is
    /// quarantined process-wide; a second mismatch fails the job with
    /// SigningFault. A corrupt signature never escapes — for SPHINCS+
    /// that matters doubly, since a faulty signature can leak WOTS
    /// one-time key material.
    bool verifyAfterSign = false;
    /// Telemetry-plane knobs for this signer's private Telemetry
    /// (stage histograms, group-shape histograms, trace sampling).
    telemetry::TelemetryConfig telemetry;

    /**
     * The recommended construction path on a tuned host: workers,
     * shards and laneGroup from a persisted autotuner profile,
     * clamped exactly like directly-set values. The overload taking
     * BatchKnobOverrides lets explicitly user-set knobs win over the
     * profile unconditionally. Defined in src/tune/.
     */
    static BatchSignerConfig fromProfile(const tune::Profile &p);
    static BatchSignerConfig
    fromProfile(const tune::Profile &p,
                const tune::BatchKnobOverrides &user);
};

/**
 * A pool of signing workers bound to one (params, secret key) pair.
 *
 * Thread-safe: submit()/submitMany() may be called concurrently from
 * any number of producer threads. drain() blocks until every job
 * submitted so far has completed and returns the batch statistics;
 * the destructor drains implicitly before joining the workers.
 */
class BatchSigner
{
  public:
    /**
     * Convenience constructor: copies @p sk once into shared storage
     * that is securely zeroized when the signer (and any outstanding
     * references) tear down.
     */
    BatchSigner(const sphincs::Params &params,
                const sphincs::SecretKey &sk,
                const BatchSignerConfig &config = {});

    /**
     * Context-injection constructor: share key material owned
     * elsewhere (e.g. a service KeyStore) without copying it. The
     * pointee must stay immutable for the signer's lifetime.
     */
    BatchSigner(const sphincs::Params &params,
                std::shared_ptr<const sphincs::SecretKey> sk,
                const BatchSignerConfig &config = {});
    ~BatchSigner();

    BatchSigner(const BatchSigner &) = delete;
    BatchSigner &operator=(const BatchSigner &) = delete;

    /**
     * Queue one request; the future yields its signature (or the
     * exception signing raised). The request's callback, when set,
     * runs on the worker thread right before the future is
     * fulfilled; it is not invoked when signing throws.
     * @throws std::invalid_argument when optRand is non-empty and
     *         not n bytes
     */
    std::future<ByteVec> submit(SignRequest req);

    /**
     * Queue a whole batch of requests; futures are in request order.
     * Every per-request field — optRand, callback — is honored
     * exactly as if each request had been submit()ed individually.
     * The requests are consumed (moved from).
     */
    std::vector<std::future<ByteVec>>
    submitMany(std::span<SignRequest> reqs);

    /**
     * Legacy positional shim for submit(SignRequest).
     * @param opt_rand n bytes of signing randomness; empty selects
     *        the deterministic variant
     */
    std::future<ByteVec> submit(ByteVec msg, ByteVec opt_rand = {});

    /** Legacy callback shim for submit(SignRequest). */
    std::future<ByteVec> submit(ByteVec msg, SignCallback cb,
                                ByteVec opt_rand = {});

    /** Legacy message-only shim for submitMany(span<SignRequest>). */
    std::vector<std::future<ByteVec>>
    submitMany(const std::vector<ByteVec> &msgs);

    /**
     * Block until everything submitted so far has completed, then
     * return the statistics for the batch (all jobs since the last
     * drain) and start a new batch epoch.
     */
    BatchStats drain();

    /**
     * Shut down without stranding: reject new submits, fast-fail
     * every still-queued job with ServiceShutdown (their admission to
     * the completion ledger is preserved — submitted == completed
     * still converges), then join the workers. Jobs already signing
     * finish normally. Idempotent; the destructor after close() is a
     * no-op join. Contrast with plain destruction, which drains
     * gracefully by signing everything queued.
     */
    void close();

    unsigned workers() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    unsigned shards() const { return queue_.shards(); }

    /** Effective cross-signature coalescing group (1 = disabled). */
    unsigned laneGroup() const { return laneGroup_; }

    /** This signer's telemetry plane (stage/group histograms, trace
     * ring). */
    telemetry::Telemetry &telemetry() { return tel_; }
    const telemetry::Telemetry &telemetry() const { return tel_; }

    const sphincs::Params &params() const { return params_; }

    /** Jobs submitted and not yet completed (approximate). */
    uint64_t pending() const
    {
        // Load completed first: a job can complete between the two
        // loads, but none can complete before being submitted, so
        // this order cannot underflow.
        const uint64_t done = completed_.load();
        const uint64_t sub = submitted_.load();
        return sub - done;
    }

  private:
    struct Worker
    {
        std::thread thread;
        std::atomic<uint64_t> signedCount{0};
    };

    void workerLoop(unsigned id);
    void processPass(Worker &w, SignJob jobs[], unsigned count);
    void signGroup(Worker &w, SignJob *const jobs[], unsigned count);
    ByteVec guardSignature(ByteVec sig, SignJob &job);
    void finishJob(Worker &w, SignJob &job, ByteVec sig);
    void failJob(SignJob &job, std::exception_ptr err);
    void completeTrace(SignJob &job, bool ok);
    void completeOne();

    sphincs::Params params_;
    // Shared immutable signing state: one key reference (no per-worker
    // copies), one scheme, one warm context reused by every sign call.
    std::shared_ptr<const sphincs::SecretKey> sk_;
    sphincs::SphincsPlus scheme_;
    sphincs::Context ctx_;
    sphincs::PublicKey pk_; ///< for the verify-after-sign guard
    ShardedMpmcQueue<SignJob> queue_;
    unsigned laneGroup_;
    bool verifyAfterSign_;
    telemetry::Telemetry tel_;
    std::vector<std::unique_ptr<Worker>> workers_;

    std::atomic<bool> closing_{false};
    std::atomic<uint64_t> submitted_{0};
    std::atomic<uint64_t> completed_{0};
    std::atomic<uint64_t> failures_{0};
    std::atomic<uint64_t> laneGroups_{0};
    std::atomic<uint64_t> crossSignJobs_{0};
    std::atomic<uint64_t> expired_{0};
    std::atomic<uint64_t> callbackErrors_{0};
    std::atomic<uint64_t> workerRestarts_{0};
    std::atomic<uint64_t> guardMismatches_{0};
    std::atomic<uint64_t> laneQuarantines_{0};

    // Batch-epoch bookkeeping, guarded by drainM_.
    std::mutex drainM_;
    std::condition_variable drainCv_;
    std::chrono::steady_clock::time_point epochStart_;
    std::chrono::steady_clock::time_point lastCompletion_;
    bool epochOpen_ = false;
    uint64_t epochJobsBase_ = 0;
    uint64_t epochStealsBase_ = 0;
    uint64_t epochFailuresBase_ = 0;
    uint64_t epochLaneGroupsBase_ = 0;
    uint64_t epochCrossSignBase_ = 0;
    uint64_t epochExpiredBase_ = 0;
    uint64_t epochCallbackErrBase_ = 0;
    uint64_t epochRestartsBase_ = 0;
    uint64_t epochGuardBase_ = 0;
    uint64_t epochQuarantineBase_ = 0;
    std::vector<uint64_t> epochWorkerBase_;
};

} // namespace herosign::batch

#endif // HEROSIGN_BATCH_BATCH_SIGNER_HH

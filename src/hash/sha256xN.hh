/**
 * @file
 * Width-generic lane-parallel SHA-256: N independent hashes advanced
 * in lockstep, N chosen by the dispatched backend.
 *
 * This is the CPU analogue of HERO-Sign's core batching idea — the
 * SPHINCS+ hot loops (WOTS+ chains, FORS leaves, Merkle leaf layers)
 * are thousands of independent fixed-shape hash calls, so they map
 * onto parallel lanes. Three backends compute bit-identical digests:
 *
 *  * AVX-512 — 16 lanes, fully transposed state, one `__m512i` per
 *    SHA-256 state word. Compiled into its own translation unit with
 *    -mavx512f (see src/hash/sha256x16_avx512.cc).
 *  * AVX2 — 8 lanes, one `__m256i` per state word (see
 *    src/hash/sha256x8_avx2.cc, compiled with -mavx2).
 *  * Portable — a scalar loop over the lanes using the same
 *    compression function as Sha256; always available, any width.
 *
 * All gating lives in ONE place, laneDispatch(): the CMake gates
 * HEROSIGN_ENABLE_AVX512 / HEROSIGN_ENABLE_AVX2 decide whether a
 * backend is compiled at all; at runtime cpuid must report the ISA;
 * the HEROSIGN_DISABLE_AVX512 environment variable (any non-empty
 * value but "0") pins dispatch to the 8-lane path, and
 * HEROSIGN_DISABLE_AVX2 keeps its historical meaning of forcing the
 * fully portable path (it disables AVX-512 too — disabling the
 * narrower ISA implies the wider one); and the
 * programmatic hooks sha256LanesForceScalar() (everything off) and
 * sha256LanesDisableAvx512() (pin to width 8) override cpuid. Both
 * environment variables are snapshotted together on the first
 * dispatch query and the snapshot is used for the rest of the
 * process — set them before startup (as the CI lane-matrix jobs do);
 * to switch backends mid-process use the programmatic hooks.
 *
 * Dispatch order: AVX-512 (16 lanes) → AVX2 (8 lanes) → portable
 * (8 lanes, so batch shapes match the historical scalar path).
 *
 * All lanes always absorb the same number of bytes per call — exactly
 * the shape of SPHINCS+ tweakable-hash batches, where every lane
 * hashes adrs_c || input of a common length. Each W-wide compression
 * charges W to Sha256::compressionCount(), so hash accounting matches
 * W scalar calls exactly at every width.
 */

#ifndef HEROSIGN_HASH_SHA256XN_HH
#define HEROSIGN_HASH_SHA256XN_HH

#include <array>
#include <cstdint>

#include "common/bytes.hh"
#include "hash/sha256.hh"

namespace herosign
{

/** Hard upper bound on SIMD lane width (the AVX-512 backend). */
constexpr size_t maxSha256Lanes = 16;

/** Which lane backend the dispatcher selected. */
enum class LaneBackend { Scalar, Avx2, Avx512 };

/**
 * Snapshot of the lane dispatch decision: which SIMD kernels are
 * usable right now and the widest batch width callers should target.
 */
struct LaneDispatch
{
    bool avx2;           ///< 8-wide AVX2 kernels usable
    bool avx512;         ///< 16-wide AVX-512 kernels usable
    LaneBackend backend; ///< widest active backend
    unsigned width;      ///< lane width of @c backend (8 or 16)
};

/**
 * The single source of truth for backend selection. Combines, for
 * both ISAs at once: compile gate, cpuid, the environment snapshot
 * (HEROSIGN_DISABLE_AVX512 / HEROSIGN_DISABLE_AVX2, read once on the
 * first call), and the programmatic overrides. The two backends can
 * never disagree about gating because neither reads any of those
 * inputs anywhere else.
 */
LaneDispatch laneDispatch();

/** True if the AVX2 backend was compiled in (HEROSIGN_ENABLE_AVX2). */
bool sha256LanesAvx2Compiled();

/** True if the AVX2 backend is compiled in AND cpuid reports AVX2. */
bool sha256LanesAvx2Supported();

/** True if the next dispatch may run the AVX2 kernels. */
bool sha256LanesAvx2Active();

/** True if the AVX-512 backend was compiled in (HEROSIGN_ENABLE_AVX512). */
bool sha256LanesAvx512Compiled();

/** True if the backend is compiled in AND cpuid reports AVX512F. */
bool sha256LanesAvx512Supported();

/** True if the next dispatch may run the 16-lane AVX-512 kernels. */
bool sha256LanesAvx512Active();

/**
 * Force the portable backend on (true) or return to automatic
 * dispatch (false). Process-wide; used by benches and the
 * forced-fallback tests. The environment snapshot still wins when a
 * disable variable was set at startup.
 */
void sha256LanesForceScalar(bool force);

/**
 * Disable only the AVX-512 backend (true) so dispatch falls back to
 * AVX2/portable at width 8, or return to automatic dispatch (false).
 * Lets benches and tests compare width 16 against the width-8 path on
 * the same host. sha256LanesForceScalar() still wins when set.
 */
void sha256LanesDisableAvx512(bool disable);

/**
 * True when environment variable @p var is set to a truthy value
 * (non-empty and not exactly "0") — the parse the disable knobs use.
 * Reads the CURRENT environment, not the startup snapshot; exposed so
 * the override-precedence tests can pin the parse semantics.
 */
bool laneEnvFlagEnabled(const char *var);

/**
 * Quarantine one SIMD tier process-wide: laneDispatch() stops
 * selecting it for every subsequent call, on every thread. This is
 * the verify-after-sign guard's response to a signature that failed
 * verification — a faulty vector unit (or a fault-injection run)
 * must not keep producing corrupt hashes. Quarantining Avx512
 * demotes dispatch to the 8-lane path; quarantining Avx2 demotes to
 * fully portable lanes. Quarantining Scalar is a no-op (there is
 * nothing below it). Sticky until sha256LanesClearQuarantines().
 */
void sha256LanesQuarantine(LaneBackend tier);

/**
 * Quarantine whatever SIMD tier laneDispatch() currently selects and
 * return it; returns LaneBackend::Scalar (and changes nothing) when
 * dispatch is already portable.
 */
LaneBackend sha256LanesQuarantineActiveTier();

/** Tiers quarantined so far (process-wide, monotonic). */
uint64_t sha256LanesQuarantineCount();

/** Lift all quarantines (tests and operator intervention only). */
void sha256LanesClearQuarantines();

/**
 * RAII thread-local override pinning laneDispatch() to the portable
 * backend for the current thread only — the verify-after-sign
 * guard's forced-scalar re-sign path. Nestable; other threads keep
 * their SIMD dispatch.
 */
class ScopedScalarLanes
{
  public:
    ScopedScalarLanes();
    ~ScopedScalarLanes();
    ScopedScalarLanes(const ScopedScalarLanes &) = delete;
    ScopedScalarLanes &operator=(const ScopedScalarLanes &) = delete;

    /** True while any ScopedScalarLanes is live on this thread. */
    static bool activeOnThisThread();

  private:
    bool prev_;
};

/**
 * Incremental lane-parallel SHA-256 hasher over a fixed number of
 * lanes (uniform lane lengths). The width is a runtime constructor
 * argument, 1..maxSha256Lanes; compression steps greedily use the
 * widest active kernels (16-wide AVX-512 chunks, then 8-wide AVX2
 * chunks, then a scalar loop), so any width is valid on any backend
 * and digests are bit-identical everywhere.
 */
class Sha256Lanes
{
  public:
    static constexpr size_t maxLanes = maxSha256Lanes;
    static constexpr size_t digestSize = Sha256::digestSize;
    static constexpr size_t blockSize = Sha256::blockSize;

    explicit Sha256Lanes(unsigned width);

    /**
     * Resume all lanes from one captured mid-state — the SPHINCS+
     * per-keypair "pk_seed || padding" state shared by every
     * tweakable-hash call under one key.
     */
    Sha256Lanes(unsigned width, const Sha256State &state);

    unsigned width() const { return width_; }

    /** Absorb @p len bytes into lane l from data[l], for all lanes. */
    void update(const uint8_t *const data[], size_t len);

    /**
     * Finalize lane l into out[l] (32 bytes each). The hasher must not
     * be reused.
     */
    void final(uint8_t *const out[]);

  private:
    void compressAll(const uint8_t *const blocks[]);
    void compressBuffers();

    std::array<uint32_t, 8> h_[maxLanes];
    uint8_t buf_[maxLanes][blockSize];
    size_t bufLen_;
    uint64_t total_;
    unsigned width_;
    bool avx2_;
    bool avx512_;
};

/**
 * AVX2 backend entry points (defined in sha256x8_avx2.cc when
 * HEROSIGN_ENABLE_AVX2 is on; exposed for the unit tests and the
 * batched tweakable-hash layer — normal users go through
 * Sha256Lanes). Callers must check laneDispatch().avx2 (or at least
 * sha256LanesAvx2Supported()) first; the stubs throw otherwise.
 * Neither entry point touches Sha256::compressionCount() — callers
 * account.
 */
void sha256Compress8Avx2(std::array<uint32_t, 8> state[8],
                         const uint8_t *const blocks[8]);

/**
 * Fused SPHINCS+ fast path: resume all 8 lanes from the shared
 * chaining state @p mid, compress exactly one pre-padded 64-byte
 * block per lane, and emit the 32-byte digests. This is the shape of
 * every batched F/PRF call (adrs_c || input fits one final block).
 */
void sha256Final8SeededAvx2(const std::array<uint32_t, 8> &mid,
                            const uint8_t *const blocks[8],
                            uint8_t *const digests[8]);

/**
 * AVX-512 backend entry points (defined in sha256x16_avx512.cc when
 * HEROSIGN_ENABLE_AVX512 is on): the 16-lane analogues of the AVX2
 * pair above, with the same contracts — check laneDispatch().avx512
 * first, callers account for compressions.
 */
void sha256Compress16Avx512(std::array<uint32_t, 8> state[16],
                            const uint8_t *const blocks[16]);

/**
 * Fused 16-lane seeded single-block kernel: the shared mid-state is
 * broadcast (no state transpose), one pre-padded block per lane, 32
 * bytes of digest out per lane.
 */
void sha256Final16SeededAvx512(const std::array<uint32_t, 8> &mid,
                               const uint8_t *const blocks[16],
                               uint8_t *const digests[16]);

/**
 * Fused 16-lane WOTS+ chain kernel: lane l runs @p steps chained F
 * calls on top of the shared mid-state, each hashing the previous
 * call's first n digest bytes. blocks[l] is lane l's first padded F
 * block: the 22-byte compressed address, whose last 4 bytes are the
 * chain position (below 2^16), then the n-byte value, then one-block
 * padding. Every later step hashes the same block with the position
 * one higher and the previous value.
 *
 * @param n value bytes, 1..32
 * @param steps F calls per lane, >= 1
 * @param out lane l's n-byte value after @p steps calls
 * @param cap_step null for no capture; otherwise cap_step[l] in
 *        1..steps copies lane l's value after that many calls to
 *        cap[l] (n bytes), and 0 captures nothing for that lane
 *
 * out[l] may alias the value inside blocks[l].
 */
void sha256Chain16SeededAvx512(const std::array<uint32_t, 8> &mid,
                               const uint8_t *const blocks[16],
                               unsigned n, unsigned steps,
                               uint8_t *const out[16],
                               const uint32_t cap_step[16],
                               uint8_t *const cap[16]);

} // namespace herosign

#endif // HEROSIGN_HASH_SHA256XN_HH

/**
 * @file
 * Per-keypair hashing context.
 *
 * Holds the parameter set, the seeds, and the captured SHA-256
 * mid-state of the 64-byte block "pk_seed || toByte(0, 64-n)". Every
 * tweakable hash call (T/F/H/PRF) starts from that mid-state, which is
 * both the spec's intent and the optimization every fast SPHINCS+
 * implementation (including HERO-Sign) relies on.
 */

#ifndef HEROSIGN_SPHINCS_CONTEXT_HH
#define HEROSIGN_SPHINCS_CONTEXT_HH

#include <cstdint>

#include "common/bytes.hh"
#include "hash/sha256.hh"
#include "sphincs/params.hh"

namespace herosign::sphincs
{

/** Hashing context bound to one keypair (or one public key). */
class Context
{
  public:
    /**
     * Build a signing context.
     * @param params parameter set
     * @param pk_seed public seed (n bytes)
     * @param sk_seed secret seed (n bytes; empty for verify-only)
     */
    Context(const Params &params, ByteSpan pk_seed, ByteSpan sk_seed);

    Context(const Context &) = default;
    Context(Context &&) = default;
    // Assignment would let vector assignment free the previous
    // secret-seed buffer without zeroizing it; no caller needs it.
    Context &operator=(const Context &) = delete;
    Context &operator=(Context &&) = delete;

    /** The secret seed copy is zeroized, never just freed. */
    ~Context();

    const Params &params() const { return params_; }
    ByteSpan pkSeed() const { return pkSeed_; }
    ByteSpan skSeed() const { return skSeed_; }

    /** True if this context can derive secrets (sk_seed present). */
    bool canSign() const { return !skSeed_.empty(); }

    /** The precomputed mid-state of pk_seed || zero padding. */
    const Sha256State &seededState() const { return seeded_; }

    /** Start a hasher resumed from the seeded mid-state. */
    Sha256 seededHasher() const { return Sha256(seeded_); }

    /**
     * Process-wide count of Context constructions (copies excluded).
     * The serving layer keeps warm per-key contexts precisely so this
     * does not grow per signature; tests and the service stats use the
     * counter to prove the hot path stays construction-free.
     */
    static uint64_t constructionCount();

  private:
    Params params_;
    ByteVec pkSeed_;
    ByteVec skSeed_;
    Sha256State seeded_;
};

} // namespace herosign::sphincs

#endif // HEROSIGN_SPHINCS_CONTEXT_HH

/**
 * @file
 * LRU cache of warm per-key signing/verification state. Building a
 * sphincs::Context hashes the seed block and copies the seeds; doing
 * that once per tenant instead of once per request is the point of
 * the serving layer. A WarmContext is immutable after construction,
 * so any number of workers use one concurrently; eviction only drops
 * the cache's reference — in-flight holders keep theirs alive.
 */

#ifndef HEROSIGN_SERVICE_CONTEXT_CACHE_HH
#define HEROSIGN_SERVICE_CONTEXT_CACHE_HH

#include <list>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "service/key_store.hh"
#include "service/service_stats.hh"
#include "sphincs/context.hh"

namespace herosign::service
{

/**
 * Warm, immutable per-key state: the key record it was built for, a
 * scheme instance, and the hashing context with the precomputed
 * pk_seed mid-state (sk_seed included when the key can sign, so one
 * WarmContext serves both directions).
 *
 * Aligned to two cache lines so the shared_ptr control block that
 * make_shared places in front of it sits in lines of its own: every
 * admission and every settled job writes that refcount, while the
 * workers read this state on every hash call. Sharing a line (or an
 * adjacent-line prefetch pair) slowed batched 256f verification by
 * about 15% on a 4-core AVX-512 host.
 */
struct alignas(128) WarmContext
{
    std::shared_ptr<const KeyRecord> key;
    sphincs::SphincsPlus scheme;
    sphincs::Context ctx;

    explicit WarmContext(std::shared_ptr<const KeyRecord> k)
        : key(std::move(k)), scheme(key->params),
          ctx(key->params, key->pk.pkSeed,
              key->canSign() ? ByteSpan(key->sk.skSeed) : ByteSpan{})
    {
    }
};

/**
 * Refuse every SHA-256 variant but Native: Ptx exists for the GPU
 * simulator's cost model only (see ServiceConfig). The services call
 * this on their config before any worker starts.
 * @throws std::invalid_argument for Sha256Variant::Ptx
 */
inline void
requireNativeVariant(Sha256Variant variant)
{
    if (variant != Sha256Variant::Native)
        throw std::invalid_argument(
            "only Sha256Variant::Native signs; Ptx is simulator-only");
}

/**
 * Thread-safe LRU cache keyed by tenant id. acquire() returns the
 * cached warm context or builds (and caches) one, evicting the least
 * recently used entry beyond capacity.
 */
class ContextCache
{
  public:
    /** @throws std::invalid_argument unless @p variant is Native. */
    explicit ContextCache(size_t capacity,
                          Sha256Variant variant = Sha256Variant::Native)
        : cap_(capacity == 0 ? 1 : capacity)
    {
        requireNativeVariant(variant);
    }

    /** Get (or build) the warm context for @p key and mark it used. */
    std::shared_ptr<const WarmContext>
    acquire(const std::shared_ptr<const KeyRecord> &key);

    CacheStats stats() const;

    size_t size() const;
    size_t capacity() const { return cap_; }

    /** Drop every cached entry (in-flight references stay valid). */
    void clear();

  private:
    struct Entry
    {
        std::shared_ptr<const WarmContext> warm;
        std::list<std::string>::iterator lruIt;
    };

    mutable std::mutex m_;
    const size_t cap_;
    std::list<std::string> lru_; ///< most recently used at the front
    std::unordered_map<std::string, Entry> map_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t evictions_ = 0;
};

} // namespace herosign::service

#endif // HEROSIGN_SERVICE_CONTEXT_CACHE_HH

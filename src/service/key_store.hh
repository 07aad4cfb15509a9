/**
 * @file
 * Multi-tenant key storage. Each tenant (key id) owns one immutable
 * KeyRecord — parameter set, secret key (optional: verify-only
 * tenants hold just the public key) and public key — handed out via
 * shared_ptr so signer workers and warm context caches share one copy
 * of the key material instead of cloning it. Secret seeds are
 * securely zeroized when the last reference drops.
 */

#ifndef HEROSIGN_SERVICE_KEY_STORE_HH
#define HEROSIGN_SERVICE_KEY_STORE_HH

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sphincs/sphincs.hh"

namespace herosign::service
{

/** One tenant's immutable key material. */
struct KeyRecord
{
    std::string id;
    sphincs::Params params;
    sphincs::SecretKey sk; ///< seeds empty for verify-only tenants
    sphincs::PublicKey pk;

    /** True when the record can sign (secret seeds present). */
    bool canSign() const { return !sk.skSeed.empty(); }

    KeyRecord() = default;
    KeyRecord(const KeyRecord &) = delete;
    KeyRecord &operator=(const KeyRecord &) = delete;

    /** Secret seeds are zeroized, never just freed. */
    ~KeyRecord();
};

/**
 * Thread-safe id -> KeyRecord map. Records are immutable once added;
 * remove() only drops the store's reference — outstanding shared_ptr
 * holders (queued jobs, warm contexts) keep the material alive and
 * zeroization happens when the last of them releases.
 */
class KeyStore
{
  public:
    /**
     * Register a signing tenant.
     * @throws std::invalid_argument when @p id is already present, the
     *         parameters are invalid, a seed or root is not n bytes, or
     *         the public key differs from the secret key's (shape,
     *         pk_seed or pk_root)
     */
    std::shared_ptr<const KeyRecord> addKey(const std::string &id,
                                            const sphincs::KeyPair &kp);

    /**
     * Register a verify-only tenant (public key, no secrets).
     * @throws std::invalid_argument when @p id is already present, the
     *         parameters are invalid, or pk_seed or pk_root is not n
     *         bytes
     */
    std::shared_ptr<const KeyRecord>
    addVerifyKey(const std::string &id, const sphincs::PublicKey &pk);

    /** Look up a tenant; nullptr when absent. */
    std::shared_ptr<const KeyRecord> find(const std::string &id) const;

    /** Drop a tenant's record. @return true when it existed. */
    bool remove(const std::string &id);

    size_t size() const;

    /** All registered tenant ids (sorted). */
    std::vector<std::string> ids() const;

  private:
    std::shared_ptr<const KeyRecord>
    insert(std::shared_ptr<KeyRecord> rec);

    mutable std::mutex m_;
    std::unordered_map<std::string, std::shared_ptr<const KeyRecord>>
        keys_;
};

} // namespace herosign::service

#endif // HEROSIGN_SERVICE_KEY_STORE_HH

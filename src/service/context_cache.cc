#include "service/context_cache.hh"

#include <stdexcept>

namespace herosign::service
{

std::shared_ptr<const WarmContext>
ContextCache::acquire(const std::shared_ptr<const KeyRecord> &key)
{
    if (!key)
        throw std::invalid_argument("ContextCache: null key record");

    {
        std::lock_guard<std::mutex> lk(m_);
        auto it = map_.find(key->id);
        if (it != map_.end()) {
            if (it->second.warm->key == key) {
                ++hits_;
                lru_.splice(lru_.begin(), lru_, it->second.lruIt);
                return it->second.warm;
            }
            // Same id, different record: the tenant's key was rotated
            // (removed and re-registered). The stale warm context must
            // not serve the new record — drop it and rebuild.
            ++evictions_;
            lru_.erase(it->second.lruIt);
            map_.erase(it);
        }
    }

    // Build outside the lock: the seed-block hash is the expensive
    // part, and two racing builders for one key are harmless (both
    // results are identical; the second insert wins the map slot).
    auto warm = std::make_shared<const WarmContext>(key);

    std::lock_guard<std::mutex> lk(m_);
    auto it = map_.find(key->id);
    if (it != map_.end()) {
        if (it->second.warm->key == key) {
            // Raced with another builder; adopt the cached one.
            ++hits_;
            lru_.splice(lru_.begin(), lru_, it->second.lruIt);
            return it->second.warm;
        }
        // Raced with a rotation: replace the stale entry.
        ++evictions_;
        lru_.erase(it->second.lruIt);
        map_.erase(it);
    }
    ++misses_;
    lru_.push_front(key->id);
    map_.emplace(key->id, Entry{warm, lru_.begin()});
    while (map_.size() > cap_) {
        ++evictions_;
        map_.erase(lru_.back());
        lru_.pop_back();
    }
    return warm;
}

CacheStats
ContextCache::stats() const
{
    std::lock_guard<std::mutex> lk(m_);
    CacheStats s;
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    s.size = map_.size();
    s.capacity = cap_;
    return s;
}

size_t
ContextCache::size() const
{
    std::lock_guard<std::mutex> lk(m_);
    return map_.size();
}

void
ContextCache::clear()
{
    std::lock_guard<std::mutex> lk(m_);
    map_.clear();
    lru_.clear();
}

} // namespace herosign::service

#include "service/key_store.hh"

#include <algorithm>
#include <stdexcept>

namespace herosign::service
{

namespace
{

void
require(bool ok, const std::string &id, const char *what)
{
    if (!ok)
        throw std::invalid_argument("KeyStore: key '" + id + "': " + what);
}

} // namespace

KeyRecord::~KeyRecord()
{
    sk.zeroize();
}

std::shared_ptr<const KeyRecord>
KeyStore::insert(std::shared_ptr<KeyRecord> rec)
{
    std::lock_guard<std::mutex> lk(m_);
    auto [it, inserted] = keys_.emplace(rec->id, rec);
    if (!inserted)
        throw std::invalid_argument("KeyStore: duplicate key id '" +
                                    rec->id + "'");
    return it->second;
}

std::shared_ptr<const KeyRecord>
KeyStore::addKey(const std::string &id, const sphincs::KeyPair &kp)
{
    const sphincs::SecretKey &sk = kp.sk;
    sk.params.validate();
    const size_t n = sk.params.n;
    require(sk.skSeed.size() == n && sk.skPrf.size() == n &&
                sk.pkSeed.size() == n && sk.pkRoot.size() == n,
            id, "every secret-key seed and root must be n bytes");
    require(sk.params.sameShape(kp.pk.params) &&
                sk.pkSeed == kp.pk.pkSeed && sk.pkRoot == kp.pk.pkRoot,
            id, "public key does not match the secret key");

    auto rec = std::make_shared<KeyRecord>();
    rec->id = id;
    rec->params = kp.sk.params;
    rec->sk = kp.sk;
    rec->pk = kp.pk;
    return insert(std::move(rec));
}

std::shared_ptr<const KeyRecord>
KeyStore::addVerifyKey(const std::string &id, const sphincs::PublicKey &pk)
{
    pk.params.validate();
    require(pk.pkSeed.size() == pk.params.n &&
                pk.pkRoot.size() == pk.params.n,
            id, "public seed and root must be n bytes");

    auto rec = std::make_shared<KeyRecord>();
    rec->id = id;
    rec->params = pk.params;
    rec->pk = pk;
    rec->sk.params = pk.params;
    return insert(std::move(rec));
}

std::shared_ptr<const KeyRecord>
KeyStore::find(const std::string &id) const
{
    std::lock_guard<std::mutex> lk(m_);
    auto it = keys_.find(id);
    return it == keys_.end() ? nullptr : it->second;
}

bool
KeyStore::remove(const std::string &id)
{
    std::lock_guard<std::mutex> lk(m_);
    return keys_.erase(id) != 0;
}

size_t
KeyStore::size() const
{
    std::lock_guard<std::mutex> lk(m_);
    return keys_.size();
}

std::vector<std::string>
KeyStore::ids() const
{
    std::vector<std::string> out;
    {
        std::lock_guard<std::mutex> lk(m_);
        out.reserve(keys_.size());
        for (const auto &[id, rec] : keys_)
            out.push_back(id);
    }
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace herosign::service

#include "lang/names.hh"

namespace asim {

size_t
NameStore::probe(std::string_view name, uint64_t hash) const
{
    const size_t mask = table_.size() - 1;
    size_t i = hash & mask;
    while (table_[i] != kNoName) {
        // Inline byte compare: names are short, and a call to memcmp
        // costs more than the bytes.
        const std::string_view have = (*this)[table_[i]];
        if (have.size() == name.size()) {
            size_t k = 0;
            while (k < name.size() && have[k] == name[k])
                ++k;
            if (k == name.size())
                break;
        }
        i = (i + 1) & mask;
    }
    return i;
}

void
NameStore::rehash(size_t capacity)
{
    table_.assign(capacity, kNoName);
    for (NameId id = 0; id < ends_.size(); ++id)
        table_[probe((*this)[id], hash((*this)[id]))] = id;
}

NameId
NameStore::intern(std::string_view name, uint64_t hash)
{
    // Keep the table at most half full: probe sequences stay short.
    if (2 * (ends_.size() + 1) > table_.size())
        rehash(table_.empty() ? 16 : 2 * table_.size());
    const size_t slot = probe(name, hash);
    if (table_[slot] != kNoName)
        return table_[slot];
    const auto id = static_cast<NameId>(ends_.size());
    chars_.append(name);
    ends_.push_back(static_cast<uint32_t>(chars_.size()));
    table_[slot] = id;
    return id;
}

NameId
NameStore::find(std::string_view name) const
{
    if (table_.empty())
        return kNoName;
    return table_[probe(name, hash(name))];
}

} // namespace asim

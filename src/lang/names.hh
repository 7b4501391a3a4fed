/**
 * @file
 * Interned component names.
 *
 * A specification names each component once in its declaration list
 * and again in every expression that reads it. The syntax tree and
 * the resolved spec keep one NameStore each: every distinct name is
 * stored once, back to back in one character buffer, and everything
 * else refers to it by a dense NameId. The store's own open-addressing
 * index (one flat array of ids, no node per name) answers "which id
 * has this spelling?" in one probe sequence.
 */

#ifndef ASIM_LANG_NAMES_HH
#define ASIM_LANG_NAMES_HH

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace asim {

/** Dense index of an interned name: 0, 1, 2, ... in interning order. */
using NameId = uint32_t;

/** The id find() returns for a name the store does not hold. */
inline constexpr NameId kNoName = UINT32_MAX;

/** The hash a NameStore files a name under, taken byte by byte, so a
 *  scanner can fold it into the pass that finds the name's end. Each
 *  byte costs a rotate and an xor (two cycles of latency, which the
 *  scan's own work hides); value() mixes every byte into the low bits
 *  the index reads. */
class NameHash
{
  public:
    void
    add(char c)
    {
        h_ = std::rotl(h_, 5) ^ static_cast<uint8_t>(c);
    }

    uint64_t
    value() const
    {
        const uint64_t x = h_ * 0x9e3779b97f4a7c15ull;
        return x ^ (x >> 32);
    }

  private:
    uint64_t h_ = 0;
};

/** One buffer of distinct names plus a flat hash index over it. */
class NameStore
{
  public:
    /** NameHash of all of `name`. */
    static uint64_t
    hash(std::string_view name)
    {
        NameHash h;
        for (char c : name)
            h.add(c);
        return h.value();
    }

    /** The id of `name`, adding it first if it is new. */
    NameId intern(std::string_view name) { return intern(name, hash(name)); }

    /** intern(name), given hash(name). */
    NameId intern(std::string_view name, uint64_t hash);

    /** The id of `name`, or kNoName. */
    NameId find(std::string_view name) const;

    /** The spelling of `id` (a view into the store; valid until the
     *  next intern()). */
    std::string_view
    operator[](NameId id) const
    {
        const uint32_t begin = id ? ends_[id - 1] : 0;
        return {chars_.data() + begin, ends_[id] - begin};
    }

    /** Number of distinct names. */
    size_t size() const { return ends_.size(); }

    /** Room for `names` names of `chars` characters in all. */
    void
    reserve(size_t names, size_t chars)
    {
        ends_.reserve(names);
        chars_.reserve(chars);
    }

  private:
    /** Slot of `name`, whose hash is `hash`, in table_: its id's
     *  slot, or the empty slot where it would go. */
    size_t probe(std::string_view name, uint64_t hash) const;
    void rehash(size_t capacity);

    std::string chars_;
    std::vector<uint32_t> ends_;  ///< end offset of each id in chars_
    std::vector<NameId> table_;   ///< power-of-two size, kNoName = empty
};

} // namespace asim

#endif // ASIM_LANG_NAMES_HH

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

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace asim {

/** Dense index of an interned name: 0, 1, 2, ... in interning order. */
using NameId = uint32_t;

/** The id find() returns for a name the store does not hold. */
inline constexpr NameId kNoName = UINT32_MAX;

/** One buffer of distinct names plus a flat hash index over it. */
class NameStore
{
  public:
    /** The id of `name`, adding it first if it is new. */
    NameId intern(std::string_view name);

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

  private:
    /** Slot of `name` in table_: its id's slot, or the empty slot
     *  where it would go. */
    size_t probe(std::string_view name) const;
    void rehash(size_t capacity);

    std::string chars_;
    std::vector<uint32_t> ends_;  ///< end offset of each id in chars_
    std::vector<NameId> table_;   ///< power-of-two size, kNoName = empty
};

} // namespace asim

#endif // ASIM_LANG_NAMES_HH

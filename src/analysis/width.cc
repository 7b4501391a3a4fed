#include "analysis/width.hh"

#include "support/bitops.hh"

namespace asim {

int
widthOf(const Term &term)
{
    switch (term.kind) {
      case Term::Kind::Const:
        return term.width < 0 ? kMaxBits : term.width;
      case Term::Kind::BitString:
        return term.width;
      case Term::Kind::Ref:
        if (term.from < 0)
            return kMaxBits;
        if (term.to < 0)
            return 1;
        return term.to - term.from + 1;
    }
    return kMaxBits;
}

int
widthOf(std::span<const Term> terms)
{
    int n = 0;
    for (const auto &t : terms) {
        n += widthOf(t);
        if (n >= kMaxBits)
            return kMaxBits;
    }
    return n;
}

} // namespace asim

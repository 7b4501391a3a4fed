#include "lang/alu_ops.hh"

#include <string>

#include "support/logging.hh"

namespace asim {

void
aluFunctionOutOfRange(int32_t funct)
{
    throw SimError("ALU function " + std::to_string(funct) +
                   " out of range 0..13");
}

} // namespace asim

/**
 * @file
 * The symbolic interpreter — the faithful ASIM baseline.
 *
 * ASIM "reads the specification into tables, and produces a simulation
 * run by interpreting the symbols in the table" (thesis §3.1): every
 * evaluation walks the parsed component definitions, looks up each
 * referenced component *by name* in the symbol table, and rebuilds the
 * field masks and shift factors from the subfield positions — exactly
 * the work a 1986 table interpreter repeated every cycle, and exactly
 * the work ASIM II's generated code amortizes away. Figure 5.1's ASIM
 * rows map onto this engine.
 *
 * (The library also ships a slot-resolved interpreter — sim/
 * interpreter.hh — as a modern intermediate point; see bench_fig5_1.)
 */

#ifndef ASIM_SIM_SYMBOLIC_HH
#define ASIM_SIM_SYMBOLIC_HH

#include "sim/engine.hh"

namespace asim {

/** See file comment. Construct via makeSymbolicInterpreter(). */
class SymbolicInterpreter : public Engine
{
  public:
    /** `ast` is rs->ast(), shared by every instance built off one
     *  resolve (Simulation::shareBatchArtifacts); null parses one. */
    SymbolicInterpreter(std::shared_ptr<const ResolvedSpec> rs,
                        const EngineConfig &cfg,
                        std::shared_ptr<const Spec> ast = nullptr);

    void step() override;

  private:
    int32_t lookup(std::string_view name) const;
    int32_t eval(Expr e) const;
    void evalComponent(const Component &c);
    void updateMemory(const Component &c, int index);

    /** The syntax tree this engine walks (the resolved spec keeps
     *  none). */
    std::shared_ptr<const Spec> ast_;

    /** Components of ast_ in evaluation order (combinational sorted,
     *  then memories in declaration order), as (component,
     *  memIndex). */
    std::vector<std::pair<const Component *, int>> combOrder_;
    std::vector<std::pair<const Component *, int>> memOrder_;
};

/** Build the symbolic interpreter (the ASIM row of Figure 5.1). */
std::unique_ptr<Engine>
makeSymbolicInterpreter(const ResolvedSpec &rs,
                        const EngineConfig &cfg = {});
std::unique_ptr<Engine>
makeSymbolicInterpreter(std::shared_ptr<const ResolvedSpec> rs,
                        const EngineConfig &cfg = {},
                        std::shared_ptr<const Spec> ast = nullptr);

} // namespace asim

#endif // ASIM_SIM_SYMBOLIC_HH

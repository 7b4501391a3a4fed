/**
 * @file
 * Checkpoint subsystem: portable binary snapshots on disk.
 *
 * A checkpoint is an EngineSnapshot serialized into a versioned,
 * checksummed, engine-agnostic binary file (layout in DESIGN.md §8):
 *
 *     magic "ASIMCKPT" | format version | spec identity hash |
 *     saved-by tag | cycle | input cursor | statistics |
 *     machine state | section count | tagged sections |
 *     CRC-32 trailer
 *
 * Sections (since format v2) carry what a *persisted run* needs
 * beyond the machine state — output to preload, a captured trace, a
 * completion flag, a serve session's rebuild recipe — so every
 * durable artifact (batch instance, parked serve session) is one file
 * written by one atomic writer: the file is valid or absent, never
 * half-updated. Version 1 files (no sections) and version 2 files
 * (an input byte cursor after the value cursor, dropped on decode)
 * still decode.
 *
 * Because every engine implements the §3 cycle-semantics contract, a
 * checkpoint written mid-run by *any* engine (interp, vm,
 * native, symbolic) restores under any other and the continuation is
 * cycle-for-cycle identical — long simulations survive process death,
 * batches resume after a kill, and a state reached cheaply under the
 * native engine can be inspected under the symbolic one.
 *
 * Integrity rules (the hard part — checkpoint files are *input*):
 *  - every read is bounds-checked (support/serialize.hh); truncated
 *    or bit-flipped files raise SimError with path, offset, and
 *    reason — never undefined behavior;
 *  - the CRC-32 trailer covers every preceding byte, so random
 *    corruption is detected before any field is trusted;
 *  - the format version gates decoding: later majors are refused
 *    with a "newer than this build" diagnostic;
 *  - the spec identity hash (analysis/resolve.hh) binds the file to
 *    the canonical written form of its specification; loading
 *    against a different spec is refused by hash before any shape
 *    check can be fooled by a same-shape impostor.
 */

#ifndef ASIM_SIM_CHECKPOINT_HH
#define ASIM_SIM_CHECKPOINT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "sim/engine.hh"

namespace asim {

/** Current checkpoint format version. Bump on any layout change;
 *  loaders refuse versions above it (compatibility rules in
 *  DESIGN.md §8). */
inline constexpr uint32_t kCheckpointVersion = 3;

/** File magic, first 8 bytes of every checkpoint. */
inline constexpr std::string_view kCheckpointMagic = "ASIMCKPT";

/** Decoded checkpoint header (peekCheckpoint(), and out-param of the
 *  full decoders) — enough to plan a resume without holding the
 *  machine state. */
struct CheckpointInfo
{
    uint32_t version = 0;
    uint64_t specHash = 0;
    uint64_t cycle = 0;
    std::string savedBy; ///< engine name that wrote it (diagnostic)
};

/** Section tags (format v2 and later). Each tag appears at most
 *  once; any other tag is refused (DESIGN.md §8). */
enum class CheckpointSection : uint32_t
{
    Output = 1,  ///< output text to preload into the output stream
    Trace = 2,   ///< captured trace text
    Done = 3,    ///< completion flag; one byte, the watchpoint bit
    Session = 4  ///< serve session recipe (serve/protocol.hh codec)
};

/** The optional sections of one checkpoint; unset = absent. */
struct CheckpointSections
{
    std::optional<std::string> output;
    std::optional<std::string> trace;
    bool done = false;          ///< Done section present
    bool watchpointHit = false; ///< Done section's watchpoint bit
    std::optional<std::string> session;
};

/** Serialize a snapshot into the binary checkpoint format.
 *  @param specHash identity of the spec the snapshot belongs to
 *  @param savedBy engine name recorded for diagnostics
 *  @param sections optional sections appended after the state */
std::string encodeCheckpoint(const EngineSnapshot &snap,
                             uint64_t specHash,
                             std::string_view savedBy,
                             const CheckpointSections &sections = {});

/**
 * Decode a checkpoint blob. Validates magic, version, checksum, and
 * every count/length; see the file comment's integrity rules.
 *
 * @param bytes the encoded file contents
 * @param context diagnostic prefix for errors (the file path)
 * @param info optional out-param receiving the header
 * @param sections optional out-param receiving the sections (all
 *        absent for a version 1 file)
 * @throws SimError on any malformed input
 */
EngineSnapshot decodeCheckpoint(std::string_view bytes,
                                const std::string &context,
                                CheckpointInfo *info = nullptr,
                                CheckpointSections *sections = nullptr);

/** Capture `engine` and write the checkpoint (with `sections`) to
 *  `path` atomically (temp file + rename, so a crash mid-write never
 *  leaves a torn checkpoint under the final name). @throws SimError
 *  on I/O failure or when the engine cannot produce a snapshot */
void saveCheckpoint(const Engine &engine, const std::string &path,
                    std::string_view savedBy = "",
                    const CheckpointSections &sections = {});

/**
 * Read, validate, and decode the checkpoint at `path` for the
 * specification `rs`: the stored spec identity hash must equal
 * specIdentityHash(rs) and the decoded state's shape must match.
 *
 * @param sections optional out-param receiving the file's sections
 * @throws SimError naming path, offset, and reason on corrupt input;
 *         naming both hashes on a spec mismatch
 */
EngineSnapshot loadCheckpoint(const std::string &path,
                              const ResolvedSpec &rs,
                              CheckpointSections *sections = nullptr);

/** Read and validate the checkpoint at `path` without binding it to
 *  a specification (full checksum still verified); returns the header
 *  and, through `sections`, the sections. @throws SimError as above */
CheckpointInfo peekCheckpoint(const std::string &path,
                              CheckpointSections *sections = nullptr);

} // namespace asim

#endif // ASIM_SIM_CHECKPOINT_HH

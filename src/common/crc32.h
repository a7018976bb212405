// CRC-32 (ISO-HDLC, reflected polynomial 0xEDB88320).
//
// This backs the end-to-end message checksum (rpc::checksum32), the NAS
// data checksums and the NIC placement checksum. Every data block is
// checksummed at least twice (sealed by the sender, verified by the
// receiver), so this is per-byte work on the simulator's host, and
// profiles of retransmit-heavy runs put it first.
//
// Two implementations, chosen per call:
//   * A carry-less-multiply (PCLMULQDQ) folding kernel: four 128-bit lanes
//     fold 64 bytes per step, then one Barrett reduction to 32 bits. It
//     covers the 16-byte-multiple prefix of any span of 64 bytes or more.
//     It is compiled for x86 only, with a per-function target attribute
//     (no build flag), and runs only when the CPU reports PCLMUL and
//     SSE4.1; the probe runs once, in a function-local static.
//   * Slicing-by-8 tables: eight independent lookups per 8-byte word.
//     This handles short spans, the tail after the folded prefix, CPUs
//     without PCLMUL and non-x86 builds, and is the reference the tests
//     compare the kernel against (crc32_update_table).
// Both compute the same register, so which one runs never changes a value.
//
// Why CRC rather than a faster hash: the checksum must be *chainable at
// arbitrary split points* — `crc32(a ++ b) == crc32(b, crc32(a))` for any
// split — because sealer and verifier walk the same byte stream in
// different chunks (e.g. an RDDP reply is sealed over header+results+data
// in one pass but verified over header+results then the separately-landed
// bulk bytes). CRC's register-update formulation gives that for free, and
// its linearity guarantees detection of any single corrupted byte and any
// burst shorter than 32 bits — strictly stronger than FNV for the
// single-flip corruptions the fault injector produces. The property and
// the agreement of both paths are pinned by tests/wire_fuzz_test.cc.
#pragma once

#include <cstdint>
#include <span>

namespace ordma {

// Advance the CRC register `crc` over `data`. Plain register update with no
// pre/post inversion, so updates compose: crc32_update over a byte stream
// yields the same register whatever the chunking. The standard CRC-32 of a
// message m is ~crc32_update(~0u, m).
std::uint32_t crc32_update(std::uint32_t crc, std::span<const std::byte> data);

// The portable slicing-by-8 path alone; same contract and result as
// crc32_update.
std::uint32_t crc32_update_table(std::uint32_t crc,
                                 std::span<const std::byte> data);

}  // namespace ordma

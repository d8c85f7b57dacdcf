// Binary codec for memo cells (the cache-snapshot value type).
//
// The engine's memo cache persists CellValues to disk so later
// processes warm-start instead of recomputing. The codec writes every
// field explicitly through util::BinaryWriter — no struct memcpy — so
// the bytes are stable across platforms, and it carries its own version
// (kAssessmentCodecVersion) that snapshot headers bind into their
// scheme tag: adding or reordering a field here must bump the version,
// which invalidates old snapshot files instead of misreading them.
//
// Each side of a cell is encoded as its ok flag and its reason-code
// byte, followed by the result only when ok, so coverage failures — a
// first-class paper result — round-trip exactly like successes. The
// decoder rejects what no encoder writes: an ok flag that contradicts
// the codes, code bits the side does not define, an energy path outside
// the enum.
#pragma once

#include <cstddef>
#include <cstdint>

#include "easyc/model.hpp"
#include "util/serialize.hpp"

namespace easyc::model {

/// Bump whenever encode_cell/decode_cell changes shape. Version 1
/// encoded the whole SystemAssessment (name and reason strings).
inline constexpr uint32_t kAssessmentCodecVersion = 2;

/// Bump whenever assessment *semantics* change — emission factors,
/// option defaults, estimation-path logic, anything that makes the
/// same inputs produce different numbers. The cache scheme tag mixes
/// this in, so snapshots computed by an older model are rejected as
/// stale instead of silently serving pre-change values (record and
/// scenario fingerprints only cover the *inputs*, not the model).
///
/// The SoA batch kernel (model::BatchAssessor) is NOT a semantics
/// change: it must stay byte-identical to the scalar path
/// (batch_kernel_test enforces this). Any kernel change that alters
/// even one output bit is a model change and must bump this version —
/// never ship it as "just the kernel".
inline constexpr uint32_t kAssessmentSemanticsVersion = 1;

/// The fewest bytes encode_cell writes: two failed sides, each an ok
/// flag and a code byte.
inline constexpr size_t kMinEncodedCellBytes = 4;

void encode_cell(util::BinaryWriter& w, const CellValue& cell);

/// Throws util::CodecError on truncation or on any byte pattern
/// encode_cell cannot produce.
CellValue decode_cell(util::BinaryReader& r);

}  // namespace easyc::model

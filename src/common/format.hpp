// Locale-independent double formatting.
//
// Every machine-readable artifact the project writes — JSONL traces,
// figure/event CSVs, invariant-violation details, bench JSON — must parse
// back with std::from_chars, which always expects '.' as the radix
// character. printf/snprintf and default-constructed iostreams instead
// honor the process locale (LC_NUMERIC): under de_DE.UTF-8 "%g" prints
// "0,5" and a trace stops round-tripping. These helpers keep the familiar
// printf conversion semantics ("%g", "%.3f", ...) but are byte-identical
// to the C locale regardless of what the host process set.
//
// jsonl_sink and the scorecard JSON already use std::to_chars (shortest
// round-trip form), which is locale-independent by specification; this
// header is the one place for everything that wants printf-style widths
// and precisions instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace realtor {

/// snprintf-compatible formatting of exactly ONE double conversion: `fmt`
/// must contain a single %-conversion taking `value` (e.g. "%g", "%.6f",
/// "%.17g"). Any radix character the active locale produced is rewritten
/// to '.'. Returns the number of characters written (excluding the NUL),
/// truncating like snprintf when `size` is too small.
int format_double(char* buf, std::size_t size, const char* fmt, double value);

/// Same, returning a std::string.
std::string format_double(const char* fmt, double value);

/// Fixed-precision decimal form — "%.<precision>f" of `value`. This is the
/// helper report tables historically used (previously in common/table),
/// now locale-independent.
std::string format_double(double value, int precision);

/// Appends the shortest round-trip form (std::to_chars) of `value`.
/// Locale-independent by specification; kept here so callers outside the
/// sinks don't re-derive the to_chars dance.
void append_double_shortest(std::string& out, double value);

/// Appends the decimal form of `value`.
void append_u64(std::string& out, std::uint64_t value);

}  // namespace realtor

#pragma once
// Validated environment-variable parsing.
//
// Every numeric qoc env knob (today only QOC_THREADS) must reject
// garbage: a mistyped deployment value must never size a thread pool
// with billions of workers. A knob-specific parser (parse_thread_count)
// layers its own range rules on top of this one shared helper, so "what
// counts as a number" is defined -- and tested, in
// tests/test_parallel.cpp -- exactly once.

#include <cstddef>

namespace qoc::common {

/// Strict positive-decimal-integer parse for env overrides. Returns the
/// value, or 0 ("no override") when `s` is null, empty, contains any
/// non-digit character (signs, whitespace, hex prefixes and trailing
/// junk all count as garbage), is zero, or exceeds `max_value`
/// (including values that would overflow any integer width: the
/// accumulator saturates instead of wrapping). `max_value` is the
/// knob's own absurdity bound, not a parsing concern -- callers pass
/// e.g. 4096 for thread counts, 32 for lane widths.
inline unsigned long parse_env_uint(const char* s,
                                    unsigned long max_value) noexcept {
  if (s == nullptr || *s == '\0') return 0;
  unsigned long value = 0;
  for (const char* p = s; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return 0;  // strictly digits, no strtol laxity
    const unsigned long digit = static_cast<unsigned long>(*p - '0');
    if (digit > max_value) return 0;
    if (value > (max_value - digit) / 10) return 0;  // would exceed max_value
    value = value * 10 + digit;
  }
  return value;  // 0 when the input was all zeros: non-positive, no override
}

}  // namespace qoc::common

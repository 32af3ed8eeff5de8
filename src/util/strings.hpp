#pragma once
/// \file strings.hpp
/// printf-style formatting (libstdc++ 12 has no std::format) and small string
/// helpers used by tables, logs and CSV output.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace casched::util {

/// Formats like std::snprintf into a std::string.
/// Example: `strformat("%-8s %6.1f", name.c_str(), value)`.
[[gnu::format(printf, 1, 2)]] std::string strformat(const char* fmt, ...);

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view s, char sep);

/// Strips ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

/// True when `s` starts with `prefix`.
bool startsWith(std::string_view s, std::string_view prefix);

/// Joins `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Lower-cases ASCII characters.
std::string toLower(std::string_view s);

/// Renders a double the way the paper's tables do: integers without a
/// fractional part, otherwise with `prec` digits (trailing zeros kept).
std::string formatNumber(double v, int prec = 1);

/// Repeats character `c` `n` times.
std::string repeated(char c, std::size_t n);

/// A network endpoint split out of "host:port".
struct HostPort {
  std::string host;
  std::uint16_t port = 0;
};

/// Parses "host:port", splitting at the last ':'. The host must be
/// non-empty and the port all ASCII digits in 1..65535: no sign, no
/// whitespace, no trailing garbage. Returns nullopt for anything else.
std::optional<HostPort> parseHostPort(std::string_view address);

}  // namespace casched::util

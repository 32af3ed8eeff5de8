#include "util/strings.hpp"

#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>

#include "util/error.hpp"

namespace casched::util {

std::string strformat(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::va_list args2;
  va_copy(args2, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (needed < 0) {
    va_end(args2);
    throw Error("strformat: invalid format string");
  }
  std::string out(static_cast<std::size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  va_end(args2);
  return out;
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

bool startsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string toLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string formatNumber(double v, int prec) {
  if (std::isnan(v)) return "-";
  const double rounded = std::round(v);
  if (std::abs(v - rounded) < 1e-9 && std::abs(v) < 1e15) {
    return strformat("%.0f", rounded);
  }
  return strformat("%.*f", prec, v);
}

std::string repeated(char c, std::size_t n) { return std::string(n, c); }

std::optional<HostPort> parseHostPort(std::string_view address) {
  const std::size_t colon = address.rfind(':');
  if (colon == std::string_view::npos || colon == 0) return std::nullopt;
  const std::string_view digits = address.substr(colon + 1);
  if (digits.empty()) return std::nullopt;
  std::uint32_t port = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    port = port * 10 + static_cast<std::uint32_t>(c - '0');
    if (port > 0xFFFF) return std::nullopt;
  }
  if (port == 0) return std::nullopt;
  return HostPort{std::string(address.substr(0, colon)),
                  static_cast<std::uint16_t>(port)};
}

}  // namespace casched::util
